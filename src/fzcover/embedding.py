"""The functor that fully embeds fuzzy subgroups into F-inverse covers.

It sends a fuzzy subgroup to its cover triple and a morphism (f, lambda) to
(fstar, lambda) with fstar acting componentwise on admissible pairs.
`verify_embedding` certifies, for a pair of objects, that the embedding is
functorial, injective on the hom-set, and surjective onto the cover-side
hom-set, by exhaustive enumeration of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import enumeration
from .cover import (
    CoverMonoid,
    CoverMorphism,
    CoverTriple,
    build_cover,
    identity_cover_morphism,
    validate_cover_morphism,
)
from .errors import DEFAULT_BUDGET, NotEmbeddingImage, ReconstructionMismatch, ValidationError
from .fuzzy import FuzzyMorphism, FuzzySubgroup, identity_fuzzy_morphism, validate_fuzzy_morphism


class _Scope:
    """What a certification reuses, and the one core of the embedding.

    Everything kept is a pure function of its key and lives in ``store``: the
    caller's ``hom_cache`` or a fresh dict.  That is covers, which carry
    their triples, hom-sets, embedded morphisms and, per object, the identity
    check, so every pair certified with one ``hom_cache`` shares them, and
    each morphism is embedded and validated once.  Nothing is stored for a
    build that raised.
    """

    def __init__(self, store: dict | None = None):
        self.store = {} if store is None else store
        self.embedded: dict[FuzzyMorphism, CoverMorphism] = self.store.setdefault(
            "embedded", {}
        )

    def lookup(self, key, build):
        value = self.store.get(key)
        if value is None:
            value = self.store[key] = build()
        return value

    def cover(self, fz: FuzzySubgroup) -> CoverMonoid:
        return self.lookup(("cover", fz), lambda: build_cover(fz))

    def identity_ok(self, fz: FuzzySubgroup) -> bool:
        """Whether the embedding sends the identity of fz to that of its cover."""
        return self.lookup(
            ("identity ok", fz),
            lambda: self.embed(identity_fuzzy_morphism(fz))
            == identity_cover_morphism(self.cover(fz).triple),
        )

    def embed(self, m: FuzzyMorphism) -> CoverMorphism:
        em = self.embedded.get(m)
        if em is None:
            c1 = self.cover(m.source)
            c2 = self.cover(m.target)
            fstar = []
            for u, x in c1.pairs:
                pair = (m.lam[u], m.f[x])
                if pair not in c2.pair_index:
                    raise ReconstructionMismatch(
                        f"image pair {pair} is not admissible", witness=(u, x)
                    )
                fstar.append(c2.pair_index[pair])
            em = self.embedded[m] = validate_cover_morphism(
                c1.triple, c2.triple, tuple(fstar), m.lam
            )
        return em

    def reconstruct(self, c: CoverMorphism, source: FuzzySubgroup, target: FuzzySubgroup):
        c1 = self.cover(source)
        c2 = self.cover(target)
        if c.source != c1.triple or c.target != c2.triple:
            raise NotEmbeddingImage("endpoints are not the embedded covers of the given objects")
        f = tuple(
            c2.pairs[c.fstar[c1.pair_index[(source.mu_index(x), x)]]][1]
            for x in range(source.n)
        )
        try:
            m = validate_fuzzy_morphism(source, target, f, c.lam)
        except ValidationError as exc:
            raise ReconstructionMismatch(
                f"reconstructed pair is not a morphism: {exc}", witness=f
            ) from exc
        if self.embed(m) != c:
            raise ReconstructionMismatch(
                "embedding of the reconstructed morphism differs from the input",
                witness=f,
            )
        return m


def embed_object(fz: FuzzySubgroup) -> CoverTriple:
    """The cover triple of a fuzzy subgroup, fully certified."""
    return build_cover(fz).triple


def embed_morphism(m: FuzzyMorphism) -> CoverMorphism:
    """Image of a fuzzy-subgroup morphism: fstar(u, x) = (lam(u), f(x)).

    Well-definedness (lam(u) stays admissible over f(x)) plus the
    homomorphism, unit, maxima and commutation conditions are all verified
    by the cover-morphism validator on the constructed map.
    """
    return _Scope().embed(m)


def reconstruct_morphism(
    c: CoverMorphism, source: FuzzySubgroup, target: FuzzySubgroup
) -> FuzzyMorphism:
    """Recover (f, lam) from a cover morphism between embedded objects.

    f(x) is the group component of the image of the class maximum over x;
    lam is shared.  The result must be a valid fuzzy-subgroup morphism whose
    embedding equals the input exactly, otherwise the reconstruction (and
    with it the fullness claim) has failed.
    """
    return _Scope().reconstruct(c, source, target)


# -- instance-level certification ----------------------------------------------

@dataclass(frozen=True)
class EmbeddingCertificate:
    """Outcome of exhaustively comparing the two hom-sets of one object pair.

    ``composition_checks`` counts the composites a->b->a and b->a->b of the
    two hom-sets.  Each is certified by lookup in the exhaustively enumerated
    Hom(a, a) or Hom(b, b): it must be listed there, and the embedding of the
    listed entry must equal the composite of the two embedded morphisms.
    """

    source: FuzzySubgroup
    target: FuzzySubgroup
    fuzzy_homs: tuple[FuzzyMorphism, ...]
    cover_homs: tuple[CoverMorphism, ...]
    bijection: tuple[int, ...]
    identity_ok: bool
    faithful: bool
    full: bool
    roundtrip_ok: bool
    composition_checks: int
    composition_ok: bool
    counterexample: Optional[str]

    @property
    def counts_equal(self) -> bool:
        return len(self.fuzzy_homs) == len(self.cover_homs)

    @property
    def ok(self) -> bool:
        return (
            self.counts_equal
            and self.identity_ok
            and self.faithful
            and self.full
            and self.roundtrip_ok
            and self.composition_ok
            and self.counterexample is None
        )

    def to_json_dict(self) -> dict:
        return {
            "fuzzy_hom_count": len(self.fuzzy_homs),
            "cover_hom_count": len(self.cover_homs),
            "bijection": list(self.bijection),
            "fuzzy_homs": [
                {"f": list(m.f), "lam": list(m.lam)} for m in self.fuzzy_homs
            ],
            "cover_homs": [
                {"fstar": list(c.fstar), "lam": list(c.lam)} for c in self.cover_homs
            ],
            "identity_ok": self.identity_ok,
            "faithful": self.faithful,
            "full": self.full,
            "roundtrip_ok": self.roundtrip_ok,
            "composition_checks": self.composition_checks,
            "composition_ok": self.composition_ok,
            "counterexample": self.counterexample,
            "ok": self.ok,
        }


def _respects_compositions(scope: _Scope, forward, reverse, hom_set) -> bool:
    """True iff the embedding respects each composite of forward and reverse.

    For m1: a -> b in ``forward`` and m2: b -> a in ``reverse``, the composites
    m2.m1 and m1.m2 are looked up by (f, lam) in Hom(a, a) and Hom(b, b), as
    ``hom_set`` enumerates them.  That is the same check as validating each
    composite and its embedding again: a hom-set is exhaustive and each entry
    passed the morphism validator, so a composite is a morphism iff it is
    listed, and the embedding of a listed entry passed the cover-morphism
    validator, so the composite of the two embedded morphisms is valid iff it
    equals that embedding.  A composite that is not listed is not respected.
    """
    if not (forward and reverse):
        return True
    endos = [
        {(m.f, m.lam): m for m in hom_set(obj, obj)}
        for obj in (forward[0].source, reverse[0].source)
    ]
    for m1 in forward:
        e1 = scope.embed(m1)
        for m2 in reverse:
            e2 = scope.embed(m2)
            for outer, inner, e_outer, e_inner, endo in (
                (m2, m1, e2, e1, endos[0]),
                (m1, m2, e1, e2, endos[1]),
            ):
                listed = endo.get((_then(inner.f, outer.f), _then(inner.lam, outer.lam)))
                if listed is None:
                    return False
                image = scope.embed(listed)
                if (image.fstar, image.lam) != (
                    _then(e_inner.fstar, e_outer.fstar),
                    _then(e_inner.lam, e_outer.lam),
                ):
                    return False
    return True


def _then(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[int, ...]:
    """The map array of first, then second."""
    return tuple(map(second.__getitem__, first))


def verify_embedding(
    source: FuzzySubgroup,
    target: FuzzySubgroup,
    *,
    budget: int = DEFAULT_BUDGET,
    hom_cache: dict | None = None,
) -> EmbeddingCertificate:
    """Certify functoriality, faithfulness and fullness on one object pair.

    Both hom-sets are enumerated exhaustively.  When Hom(source, target) and
    Hom(target, source) are both non-empty, Hom(source, source) and
    Hom(target, target) are enumerated too, to certify the composites by
    lookup; each of these enumerations is its own search under ``budget``.
    A shared ``hom_cache`` dict, owned by the caller, keeps covers, cover
    triples, hom-sets, embedded morphisms and the identity check of each
    object across many pairs, so a pool embeds and validates each morphism
    once.  Any failed condition is recorded as a counterexample in the
    certificate instead of raising.
    """
    scope = _Scope(hom_cache)

    def fuzzy_hom_set(s, t):
        return scope.lookup(
            ("fuzzy homs", s, t),
            lambda: enumeration.enumerate_fuzzy_morphisms(s, t, budget=budget),
        )

    fuzzy_homs = fuzzy_hom_set(source, target)
    cover_homs = scope.lookup(
        ("cover homs", source, target),
        lambda: enumeration.enumerate_cover_morphisms(
            scope.cover(source).triple, scope.cover(target).triple, budget=budget
        ),
    )
    counterexample = None

    identity_ok = scope.identity_ok(source) and scope.identity_ok(target)

    images = []
    bijection = []
    for i, m in enumerate(fuzzy_homs):
        em = scope.embed(m)
        images.append(em)
        try:
            bijection.append(cover_homs.index(em))
        except ValueError:
            counterexample = f"image of fuzzy morphism {i} missing from cover hom-set"
            bijection.append(-1)
    faithful = len(set(bijection)) == len(bijection)
    if not faithful and counterexample is None:
        counterexample = "two fuzzy morphisms share one image"

    full = len(set(bijection)) == len(cover_homs) and -1 not in bijection
    roundtrip_ok = True
    reconstructed = {}
    for j, c in enumerate(cover_homs):
        try:
            m = reconstructed[j] = scope.reconstruct(c, source, target)
        except (ReconstructionMismatch, NotEmbeddingImage) as exc:
            full = False
            roundtrip_ok = False
            if counterexample is None:
                counterexample = f"cover morphism {j}: {exc}"
            continue
        if m not in fuzzy_homs:
            full = False
            if counterexample is None:
                counterexample = f"cover morphism {j} reconstructs outside the hom-set"
    for i, m in enumerate(fuzzy_homs):
        # images[i] == cover_homs[bijection[i]], whose reconstruction is known
        back = reconstructed.get(bijection[i])
        if back is None:
            try:
                back = scope.reconstruct(images[i], source, target)
            except (ReconstructionMismatch, NotEmbeddingImage):
                pass  # no morphism came back, so the round trip differs
        if back != m:
            roundtrip_ok = False
            if counterexample is None:
                counterexample = f"round trip differs on fuzzy morphism {i}"

    reverse = fuzzy_hom_set(target, source)
    composition_ok = _respects_compositions(scope, fuzzy_homs, reverse, fuzzy_hom_set)
    if not composition_ok and counterexample is None:
        counterexample = "embedding does not respect a composition"

    return EmbeddingCertificate(
        source=source,
        target=target,
        fuzzy_homs=tuple(fuzzy_homs),
        cover_homs=tuple(cover_homs),
        bijection=tuple(bijection),
        identity_ok=identity_ok,
        faithful=faithful,
        full=full,
        roundtrip_ok=roundtrip_ok,
        composition_checks=2 * len(fuzzy_homs) * len(reverse),
        composition_ok=composition_ok,
        counterexample=counterexample,
    )
