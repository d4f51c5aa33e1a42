"""The functor that fully embeds fuzzy subgroups into F-inverse covers.

It sends a fuzzy subgroup to its cover triple and a morphism (f, lambda) to
(fstar, lambda) with fstar acting componentwise on admissible pairs; the way
back reads f off the images of the class maxima.  Both directions are array
maps that validate nothing, `_fstar` and `_f`: `embed_morphism` and
`reconstruct_morphism` validate what they build, and `verify_embedding`
certifies a pair of objects by index arithmetic over the exhaustively
enumerated hom-sets between them and of each to itself, whose entries passed
their validators once.
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
    validate_cover_morphism,
)
from .errors import DEFAULT_BUDGET, NotEmbeddingImage, ReconstructionMismatch, ValidationError
from .fuzzy import FuzzyMorphism, FuzzySubgroup, validate_fuzzy_morphism


def _fstar(c1: CoverMonoid, c2: CoverMonoid, m: FuzzyMorphism) -> tuple[int, ...]:
    """fstar(u, x) = (lam(u), f(x)) as pair indices, -1 where that pair is not admissible."""
    f, lam, index = m.f, m.lam, c2.pair_index
    return tuple(index.get((lam[u], f[x]), -1) for u, x in c1.pairs)


def _f(c1: CoverMonoid, c2: CoverMonoid, fstar) -> tuple[int, ...]:
    """f(x) as the group component of fstar at the class maximum (mu(x), x)."""
    fz = c1.source
    return tuple(
        c2.pairs[fstar[c1.pair_index[(fz.mu_index(x), x)]]][1] for x in range(fz.n)
    )


def _embed(c1: CoverMonoid, c2: CoverMonoid, m: FuzzyMorphism) -> CoverMorphism:
    fstar = _fstar(c1, c2, m)
    if -1 in fstar:
        u, x = c1.pairs[fstar.index(-1)]
        pair = (m.lam[u], m.f[x])
        raise ReconstructionMismatch(f"image pair {pair} is not admissible", witness=(u, x))
    return validate_cover_morphism(c1.triple, c2.triple, fstar, m.lam)


def embed_object(fz: FuzzySubgroup) -> CoverTriple:
    """The cover triple of a fuzzy subgroup, fully certified."""
    return build_cover(fz).triple


def embed_morphism(m: FuzzyMorphism) -> CoverMorphism:
    """Image of a fuzzy-subgroup morphism: fstar(u, x) = (lam(u), f(x)).

    Well-definedness (lam(u) stays admissible over f(x)) plus the
    homomorphism, unit, maxima and commutation conditions are all verified
    by the cover-morphism validator on the constructed map.
    """
    return _embed(build_cover(m.source), build_cover(m.target), m)


def reconstruct_morphism(
    c: CoverMorphism, source: FuzzySubgroup, target: FuzzySubgroup
) -> FuzzyMorphism:
    """Recover (f, lam) from a cover morphism between embedded objects.

    f(x) is the group component of the image of the class maximum over x;
    lam is shared.  The result must be a valid fuzzy-subgroup morphism whose
    embedding equals the input exactly, otherwise the reconstruction (and
    with it the fullness claim) has failed.
    """
    c1, c2 = build_cover(source), build_cover(target)
    if c.source != c1.triple or c.target != c2.triple:
        raise NotEmbeddingImage("endpoints are not the embedded covers of the given objects")
    f = _f(c1, c2, c.fstar)
    try:
        m = validate_fuzzy_morphism(source, target, f, c.lam)
    except ValidationError as exc:
        raise ReconstructionMismatch(
            f"reconstructed pair is not a morphism: {exc}", witness=f
        ) from exc
    if _embed(c1, c2, m) != c:
        raise ReconstructionMismatch(
            "embedding of the reconstructed morphism differs from the input", witness=f
        )
    return m


# -- instance-level certification ----------------------------------------------

@dataclass(frozen=True)
class EmbeddingCertificate:
    """Outcome of exhaustively comparing the two hom-sets of one object pair.

    ``composition_checks`` counts the composites a->b->a and b->a->b of the
    two hom-sets.  Each must be listed in the enumerated Hom(a, a) or Hom(b,
    b), and the embedding of that entry must equal the composite of the two
    embedded morphisms.
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


@dataclass(frozen=True)
class _Homs:
    """Hom(s, t) on both sides, indexed once; a morphism is its position here.

    ``fuzzy`` and ``cover`` are the hom-sets as the enumerators return them,
    ``index`` maps (f, lam) to a position in ``fuzzy``, ``fstars[i]`` is the
    fstar array of the image of ``fuzzy[i]``, ``image[i]`` the position of
    (fstars[i], lam) in ``cover`` and ``back[j]`` that of (f read off
    ``cover[j]``, lam) in ``fuzzy``, each -1 where it is not listed.
    """

    fuzzy: list[FuzzyMorphism]
    cover: list[CoverMorphism]
    index: dict[tuple, int]
    fstars: list[tuple[int, ...]]
    image: list[int]
    back: list[int]


class _Scope:
    """What a certification reuses: covers and hom records.

    Everything kept is a pure function of its key and lives in ``store``: the
    caller's ``hom_cache`` or a fresh dict.  The record of an ordered pair is
    built one way, the fuzzy search and then the cover search.  Nothing is
    stored for a build that raised.
    """

    def __init__(self, store: dict | None, budget: int):
        self.store = {} if store is None else store
        self.budget = budget

    def lookup(self, key, build):
        value = self.store.get(key)
        if value is None:
            value = self.store[key] = build()
        return value

    def cover(self, fz: FuzzySubgroup) -> CoverMonoid:
        return self.lookup(("cover", fz), lambda: build_cover(fz))

    def homs(self, s: FuzzySubgroup, t: FuzzySubgroup) -> _Homs:
        return self.lookup(("homs", s, t), lambda: self._index(s, t))

    def _index(self, s: FuzzySubgroup, t: FuzzySubgroup) -> _Homs:
        fuzzy = enumeration.enumerate_fuzzy_morphisms(s, t, budget=self.budget)
        c1, c2 = self.cover(s), self.cover(t)
        cover = enumeration.enumerate_cover_morphisms(c1.triple, c2.triple, budget=self.budget)
        index = {(m.f, m.lam): i for i, m in enumerate(fuzzy)}
        listed = {(c.fstar, c.lam): j for j, c in enumerate(cover)}
        fstars = [_fstar(c1, c2, m) for m in fuzzy]
        image = [listed.get((e, m.lam), -1) for e, m in zip(fstars, fuzzy)]
        back = [index.get((_f(c1, c2, c.fstar), c.lam), -1) for c in cover]
        return _Homs(fuzzy, cover, index, fstars, image, back)


def _respects_compositions(first: _Homs, second: _Homs, loops: _Homs) -> bool:
    """Whether E(m2.m1) = E(m2).E(m1) for each m1 of Hom(a, b) and m2 of Hom(b, a).

    ``first``, ``second`` and ``loops`` are the records of Hom(a, b),
    Hom(b, a) and Hom(a, a).  m2.m1 is a morphism iff its arrays are listed
    in ``loops``, and E(m1), E(m2) and E(m2.m1) are cover morphisms iff their
    images are listed.  Then both sides share lam, so they are equal iff the
    fstar arrays compose.
    """
    for m1, e1, i1 in zip(first.fuzzy, first.fstars, first.image):
        for m2, e2, i2 in zip(second.fuzzy, second.fstars, second.image):
            at = loops.index.get((_then(m1.f, m2.f), _then(m1.lam, m2.lam)), -1)
            if -1 in (i1, i2, at) or loops.image[at] < 0 or loops.fstars[at] != _then(e1, e2):
                return False
    return True


def _keeps_identity(loops: _Homs, fz: FuzzySubgroup) -> bool:
    """Whether E(id) = id, read off the record of Hom(fz, fz)."""
    at = loops.index.get((tuple(range(fz.n)), tuple(range(len(fz.chain)))), -1)
    return (
        at >= 0
        and loops.image[at] >= 0
        and loops.fstars[at] == tuple(range(len(loops.fstars[at])))
    )


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

    The `_Homs` records of (source, target), (target, source), (source,
    source) and (target, target) are built in that order, each by its fuzzy
    search and then its cover search; each search has the whole ``budget``.
    The certificate is index arithmetic over those four records: no
    morphism is embedded, validated or reconstructed again.  That decides
    the same conditions, because a hom-set is exhaustive, each of its
    entries passed its validator, and E and R keep lam:

    - id_a is a morphism iff it is listed in Hom(a, a), and E(id_a) is the
      identity cover morphism iff its fstar array is the identity array
      and its image is listed;
    - E(m) is a cover morphism iff its arrays are listed, so image[i] >= 0;
    - R(c) is a morphism of Hom(a, b) iff its arrays are listed, so
      back[j] >= 0;
    - E(R(c_j)) = c_j iff image[back[j]] == j, and R(E(m_i)) = m_i iff
      back[image[i]] == i;
    - composites as in `_respects_compositions`.

    So the certificate accepts exactly the pairs that embedding and
    validating every morphism accepts, and a broken enumerator or embedding
    is recorded as the first failed condition instead of raising.  A shared
    ``hom_cache`` dict, owned by the caller, keeps covers and records across
    many pairs, so each hom-set is searched once.
    """
    scope = _Scope(hom_cache, budget)
    ab, ba = scope.homs(source, target), scope.homs(target, source)
    aa, bb = scope.homs(source, source), scope.homs(target, target)
    image, back = ab.image, ab.back

    identity_ok = _keeps_identity(aa, source) and _keeps_identity(bb, target)
    failures = [] if identity_ok else ["embedding does not send an identity to an identity"]
    missing = [i for i, j in enumerate(image) if j < 0]
    failures += [f"image of fuzzy morphism {i} missing from cover hom-set" for i in missing]
    faithful = len(set(image)) == len(image)
    if not faithful:
        failures.append("two fuzzy morphisms share one image")

    full = -1 not in image
    roundtrip_ok = True
    for j, i in enumerate(back):
        if i < 0 or image[i] != j:
            full = roundtrip_ok = False
            failures.append(f"cover morphism {j}" + (
                " reconstructs outside the hom-set" if i < 0
                else ": embedding of the reconstructed morphism differs from the input"
            ))
    for i, j in enumerate(image):
        if j < 0 or back[j] != i:
            roundtrip_ok = False
            failures.append(f"round trip differs on fuzzy morphism {i}")

    composition_ok = _respects_compositions(ab, ba, aa) and _respects_compositions(ba, ab, bb)
    if not composition_ok:
        failures.append("embedding does not respect a composition")

    return EmbeddingCertificate(
        source=source,
        target=target,
        fuzzy_homs=tuple(ab.fuzzy),
        cover_homs=tuple(ab.cover),
        bijection=tuple(image),
        identity_ok=identity_ok,
        faithful=faithful,
        full=full,
        roundtrip_ok=roundtrip_ok,
        composition_checks=2 * len(ab.fuzzy) * len(ba.fuzzy),
        composition_ok=composition_ok,
        counterexample=failures[0] if failures else None,
    )
