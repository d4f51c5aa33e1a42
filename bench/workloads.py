"""The timed item loops, driving fzcover's public API as the CLI commands do.

``prepare`` turns a parsed workspace into the item list (setup, untimed by
the item clock); ``run`` calls the library once per item and records its
latency and the observed values the oracle checks afterwards, with speed
probes of the host in between.  Every library
call goes through the ``lib`` package namespace so that a tracer or a
self-test can rebind it.
"""

from __future__ import annotations

import sys
import traceback
from bisect import bisect_left
from fractions import Fraction
from statistics import median
from time import perf_counter

import inputs

PROBE_GROUP = inputs.dihedral(6)
PROBE_SHARE = 0.1
PROBE_WINDOW = 5


def _psi_by_element(lib, cover, dp) -> list[int]:
    """The recovered premorphism as chain index per group element."""
    _, _, class_of = lib.sigma(cover.monoid)
    return [
        dp.psi[class_of[cover.pair_index[(0, x)]]] for x in range(cover.source.n)
    ]


def _round_trip(lib, cover):
    return lib.premorphism_from_cover(cover.monoid, cover.base, cover.projection)


# -- certify-pool: `fzcover embed` over every ordered pair of a pool ------------

def _prepare_certify(lib, ws, spec):
    objs = [ws.fuzzies[o["name"]] for o in spec["objects"]]
    hom_cache: dict = {}
    items = [(a, b) for a in objs for b in objs]

    def call(pair):
        return lib.verify_embedding(pair[0], pair[1], hom_cache=hom_cache)

    def observe(pair, cert):
        return {
            "ok": cert.ok,
            "fuzzy_homs": len(cert.fuzzy_homs),
            "cover_homs": len(cert.cover_homs),
            "composition_checks": cert.composition_checks,
        }

    return items, call, observe


# -- cover-ladder: `fzcover cover --report levels` plus the round trip ---------

def _prepare_ladder(lib, ws, spec):
    items = [ws.fuzzies[it["name"]] for it in spec["items"]]

    def call(fz):
        cover = lib.build_cover(fz)
        report = lib.cover_report(cover)
        levels = [
            (lib.level_subset(fz, u), lib.hclass_level_isomorphism(cover, u))
            for u in fz.chain
        ]
        return cover, report, levels, _round_trip(lib, cover)

    def observe(fz, result):
        cover, report, levels, dp = result
        return {
            "size": cover.n,
            "closed_forms": report.all_match,
            "level_sizes": [len(subset) for subset, _ in levels],
            "hclass_sizes": [len(mapping) for _, mapping in levels],
            "psi": _psi_by_element(lib, cover, dp),
        }

    return items, call, observe


# -- grid-sweep: `fzcover enumerate`, then every cover found -------------------

def _prepare_grid(lib, ws, spec):
    items = [
        (ws.groups[it["group"]], lib.ValueGrid(tuple(Fraction(v) for v in it["levels"])))
        for it in spec["items"]
    ]

    def call(item):
        group, grid = item
        by_filter = lib.enumerate_fuzzy_subgroups_filter(group, grid)
        by_chain = lib.enumerate_fuzzy_subgroups_chain(group, grid)
        covers = []
        for fz in by_filter:
            cover = lib.build_cover(fz)
            report = lib.cover_report(cover)
            covers.append((cover, report, _round_trip(lib, cover)))
        return by_filter, by_chain, covers

    def observe(item, result):
        by_filter, by_chain, covers = result
        index = {v: str(i) for i, v in enumerate(item[1].levels)}

        def code(fz):
            return "".join(index[v] for v in fz.mu)

        return {
            "filter": [code(fz) for fz in by_filter],
            "chain": [code(fz) for fz in by_chain],
            "covers": [
                [cover.n, report.all_match, _psi_by_element(lib, cover, dp)]
                for cover, report, dp in covers
            ],
        }

    return items, call, observe


PREPARE = {
    "certify-pool": _prepare_certify,
    "cover-ladder": _prepare_ladder,
    "grid-sweep": _prepare_grid,
}


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no fzcover.

    All subgroups of the dihedral group of order 12, by the bench's own
    closure code: dict, set and tuple work much like the library's.  Timed
    between items, it tracks the speed the host gives this process at that
    moment, and a change to fzcover never moves it.
    """
    t0 = perf_counter()
    inputs.subgroups(PROBE_GROUP)
    return perf_counter() - t0


def run(items, call, observe, tracer=None):
    """Run every item once.

    Returns (verdict seconds, latencies, observations, probes, item probes).
    After each item, ``probe`` runs until probes have taken ``PROBE_SHARE``
    of the time items took so far, so the probe samples the machine's speed
    at the moments the items ran.  An item's probe is the median of the
    ``2 * PROBE_WINDOW`` probes around the first one run after it: the speed
    also changes from one second to the next.  The verdict time leaves the
    probes out.
    An item that raises is recorded with its error and counts as failed; the
    first traceback goes to stderr so an oracle bug cannot read as a pass.
    """
    latencies = []
    observations = []
    probes = []
    probe_after = []
    busy = probed = 0.0
    reported = False
    start = perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            result = call(item)
        except Exception as exc:  # every raised item is a counted failure
            latencies.append(perf_counter() - t0)
            observations.append({"error": f"{type(exc).__name__}: {exc}"})
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        else:
            latencies.append(perf_counter() - t0)
            observations.append(observe(item, result))
        busy += latencies[-1]
        while probed < PROBE_SHARE * busy:
            probes.append(probe())
            probed += probes[-1]
            probe_after.append(i)
    verdict = perf_counter() - start - probed
    if tracer is not None:
        tracer.item = -1
    item_probes = []
    for i in range(len(items)):
        first = bisect_left(probe_after, i)
        window = probes[max(0, first - PROBE_WINDOW) : first + PROBE_WINDOW]
        item_probes.append(median(window))
    return verdict, latencies, observations, probes, item_probes
