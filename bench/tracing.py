"""Per-layer tracing of fzcover from outside the library.

``Tracer.install`` wraps public functions of each fzcover module and rebinds
the wrapper in every fzcover namespace that holds the original, so calls
between modules are seen too (``build_cover`` lives in both ``cover`` and
``embedding``).  Each wrapped call records a span: name, start, end, parent
span and the benchmark item it ran for.  Spans stay in flat arrays in
memory and are written once, by ``write``.  The two hottest functions,
``is_monoid_homomorphism`` and ``FuzzySubgroup.__hash__``, are counted only.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute) of every function that records spans
SPANNED = (
    ("workspace", "parse_workspace"),
    ("fuzzy", "validate_fuzzy"),
    ("groups", "enumerate_group_homomorphisms"),
    ("enumeration", "enumerate_fuzzy_morphisms"),
    ("enumeration", "enumerate_cover_morphisms"),
    ("enumeration", "all_subgroups"),
    ("enumeration", "enumerate_subgroup_chains"),
    ("enumeration", "enumerate_fuzzy_subgroups_filter"),
    ("enumeration", "enumerate_fuzzy_subgroups_chain"),
    ("monoids", "validate_inverse_monoid"),
    ("monoids", "_check_table"),
    ("monoids", "_generalized_inverses"),
    ("monoids", "_derive"),
    ("monoids", "enumerate_monoid_homomorphisms"),
    ("cover", "build_cover"),
    ("cover", "cover_report"),
    ("cover", "hclass_level_isomorphism"),
    ("cover", "premorphism_from_cover"),
    ("cover", "cover_from_premorphism"),
    ("cover", "monoid_isomorphic"),
    ("embedding", "verify_embedding"),
    ("embedding", "embed_morphism"),
    ("embedding", "embed_object"),
    ("embedding", "validate_cover_morphism"),
    ("embedding", "reconstruct_morphism"),
)
COUNTED = (("monoids", "is_monoid_homomorphism"),)

# the per-layer metrics, in BENCHMARK.json order: name -> unit
METRICS = {
    "embedding.verify_embedding.self_s": "s",
    "embedding.embed_morphism.calls": "count",
    "embedding.embed_morphism.distinct_ratio": "ratio",
    "embedding.validate_cover_morphism.self_s": "s",
    "embedding.reconstruct_morphism.self_s": "s",
    "embedding.embed_object.hit_ratio": "ratio",
    "embedding.hom_cache.hit_ratio": "ratio",
    "fuzzy.FuzzySubgroup.hash.calls": "count",
    "fuzzy.validate_fuzzy.calls": "count",
    "fuzzy.validate_fuzzy.self_s": "s",
    "groups.enumerate_group_homomorphisms.self_s": "s",
    "groups.enumerate_group_homomorphisms.yield": "ratio",
    "enumeration.enumerate_fuzzy_morphisms.self_s": "s",
    "enumeration.enumerate_cover_morphisms.self_s": "s",
    "enumeration.all_subgroups.self_s": "s",
    "enumeration.all_subgroups.yield": "ratio",
    "enumeration.enumerate_subgroup_chains.self_s": "s",
    "enumeration.enumerate_fuzzy_subgroups_filter.self_s": "s",
    "enumeration.enumerate_fuzzy_subgroups_filter.yield": "ratio",
    "enumeration.enumerate_fuzzy_subgroups_chain.self_s": "s",
    "monoids.validate_inverse_monoid.calls": "count",
    "monoids.check_table.self_s": "s",
    "monoids.generalized_inverses.self_s": "s",
    "monoids.derive.self_s": "s",
    "monoids.enumerate_monoid_homomorphisms.self_s": "s",
    "monoids.is_monoid_homomorphism.calls": "count",
    "cover.build_cover.self_s": "s",
    "cover.cover_report.self_s": "s",
    "cover.hclass_level_isomorphism.self_s": "s",
    "cover.premorphism_from_cover.self_s": "s",
    "cover.cover_from_premorphism.self_s": "s",
    "cover.monoid_isomorphic.self_s": "s",
    "workspace.parse_workspace.self_s": "s",
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# useful outcomes and candidates examined per call, for the yield ratios
YIELDS = {
    "groups.enumerate_group_homomorphisms": lambda a, k, r: (
        len(r), _arg(a, k, 1, "target").n ** _arg(a, k, 0, "source").n),
    "enumeration.all_subgroups": lambda a, k, r: (
        len(r), 2 ** (_arg(a, k, 0, "group").n - 1)),
    "enumeration.enumerate_fuzzy_subgroups_filter": lambda a, k, r: (
        len(r), _arg(a, k, 1, "grid").k ** _arg(a, k, 0, "group").n),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counts of one traced session; ``item`` is set by the item loop."""

    def __init__(self):
        self.item = -1
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.yields: dict[str, list[int]] = {}
        self.distinct_embeds: set = set()
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []

    # -- installation ----------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, item_of, stack = self.parent, self.item_of, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1])
            item_of.append(self.item)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hook(self, name):
        if name in YIELDS:
            hook = YIELDS[name]
            totals = self.yields.setdefault(name, [0, 0])

            def after(args, kwargs, result):
                num, den = hook(args, kwargs, result)
                totals[0] += num
                totals[1] += den

            return after
        if name == "embedding.embed_morphism":
            seen = self.distinct_embeds

            def after(args, kwargs, result):
                m = _arg(args, kwargs, 0, "m")
                # identity of the endpoint objects avoids calling the counted hash
                seen.add((id(m.source), id(m.target), m.f, m.lam))

            return after
        return None

    def install(self):
        """Wrap every listed function and rebind it wherever fzcover imported it."""
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "fzcover" or key.startswith("fzcover.")
        ]
        for module, attr, spanned in (
            [(m, a, True) for m, a in SPANNED] + [(m, a, False) for m, a in COUNTED]
        ):
            name = f"{module}.{attr}"
            original = getattr(sys.modules.get(f"fzcover.{module}"), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self.originals[name] = original
            if spanned:
                wrapped = self._span_wrapper(name, original, self._after_hook(name))
            else:
                wrapped = self._count_wrapper(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
        fuzzy = sys.modules.get("fzcover.fuzzy")
        cls = getattr(fuzzy, "FuzzySubgroup", None)
        if cls is None or "__hash__" not in vars(cls):
            self.absent.append("fuzzy.FuzzySubgroup.__hash__")
        else:
            cls.__hash__ = self._count_wrapper("fuzzy.FuzzySubgroup.hash", vars(cls)["__hash__"])

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """(self seconds, calls) per span name: duration minus direct children."""
        n = len(self.name_of)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.name_of[i]
            self_s[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
        return (
            dict(zip(self.names, self_s)),
            dict(zip(self.names, calls)),
        )

    def _calls_under(self, target: str, ancestor: str) -> int:
        names = self.names
        if target not in names or ancestor not in names:
            return 0
        tid, aid = names.index(target), names.index(ancestor)
        total = 0
        for i in range(len(self.name_of)):
            if self.name_of[i] != tid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def metrics(self) -> dict[str, float]:
        self_s, calls = self.self_times()
        values = {}
        for metric in METRICS:
            module, rest = metric.split(".", 1)
            func, stat = rest.rsplit(".", 1)
            name = f"{module}.{func}"
            if name not in self_s and f"{module}._{func}" in self_s:
                name = f"{module}._{func}"
            if stat == "self_s":
                values[metric] = self_s.get(name, 0.0)
            elif stat == "calls":
                values[metric] = calls.get(name, self.counts.get(name, 0))
            elif stat == "yield":
                values[metric] = _ratio(*self.yields.get(name, (0, 0)))
        values["embedding.embed_morphism.distinct_ratio"] = _ratio(
            len(self.distinct_embeds), calls.get("embedding.embed_morphism", 0))
        lru = self.originals.get("embedding.embed_object")
        info = lru.cache_info() if hasattr(lru, "cache_info") else None
        values["embedding.embed_object.hit_ratio"] = (
            _ratio(info.hits, info.hits + info.misses) if info else 0.0)
        # verify_embedding looks up three hom-sets per pair; each miss runs one enumeration
        lookups = 3 * calls.get("embedding.verify_embedding", 0)
        misses = sum(
            self._calls_under(f"enumeration.{f}", "embedding.verify_embedding")
            for f in ("enumerate_fuzzy_morphisms", "enumerate_cover_morphisms")
        )
        values["embedding.hom_cache.hit_ratio"] = _ratio(lookups - misses, lookups)
        return values

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id name start end parent item."""
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\titem\n")
            names = self.names
            for i in range(len(self.name_of)):
                out.write(
                    f"{i}\t{names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.item_of[i]}\n"
                )
