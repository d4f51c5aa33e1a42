"""The functor that fully embeds fuzzy subgroups into F-inverse covers.

It sends a fuzzy subgroup to its cover triple and a morphism (f, lambda) to
(fstar, lambda) with fstar acting componentwise on admissible pairs; the way
back reads f off the images of the class maxima.  Both directions are array
maps that validate nothing, `_fstar` and `_f`: `embed_morphism` and
`reconstruct_morphism` validate what they build, and `verify_embedding`
certifies a pair of objects by index arithmetic over the exhaustively
enumerated hom-sets between them and of each to itself.  The arrays of those
hom-sets, their index and the certificate's verdict depend only on the
shapes of the objects (group and rank vector), and so does whether an array
passes its validator; so they are found, each entry validated and the
verdict decided, once per ordered pair of shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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
    """E(m), validated; an inadmissible image pair, -1 in fstar, fails as NotHomomorphism."""
    return validate_cover_morphism(c1.triple, c2.triple, _fstar(c1, c2, m), m.lam)


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


@dataclass
class _Arrays:
    """Hom(s, t) of one ordered pair of shapes: both hom-sets as arrays, indexed once.

    ``fuzzy`` lists the (f, lam) and ``cover`` the (fstar, lam) arrays of
    the two hom-sets as the enumerators return them, ``index`` maps (f, lam)
    to a position in ``fuzzy``, ``image[i]`` is the position of the
    embedding of ``fuzzy[i]`` in ``cover`` and ``back[j]`` that of (f read
    off ``cover[j]``, lam) in ``fuzzy``, each -1 where it is not listed.
    ``verdict`` is None until `_verdict` sets it, once: the fields of a
    certificate of (s, t) other than its objects and morphisms.
    """

    fuzzy: list[tuple[tuple[int, ...], tuple[int, ...]]]
    cover: list[tuple[tuple[int, ...], tuple[int, ...]]]
    index: dict[tuple, int]
    image: list[int]
    back: list[int]
    verdict: Optional[dict] = None


# A certification keeps covers, hom records and group hom-sets in ``store``,
# the caller's ``hom_cache`` or a fresh dict, under ("cover", fz), ("homs",
# s.group, s._rank, t.group, t._rank) and ("group homs", g, h).  Each is a
# pure function of its key, and nothing is stored for a build that raised.

def _cover(store: dict, fz: FuzzySubgroup) -> CoverMonoid:
    cover = store.get(("cover", fz))
    if cover is None:
        cover = store[("cover", fz)] = build_cover(fz)
    return cover


def _homs(store: dict, s: FuzzySubgroup, t: FuzzySubgroup, budget: int) -> _Arrays:
    """Hom(s, t) by the fuzzy search and then the cover search, once per pair of shapes.

    The shape of a fuzzy subgroup is its group and its rank vector, and the
    `_Arrays` of the two hom-sets are kept under ("homs", s.group, s._rank,
    t.group, t._rank).  That key decides them, and the values are only
    names.  `enumerate_fuzzy_morphisms` reads the two groups (their tables
    and generators, for the group hom-set), the ranks and the chain
    lengths.  `build_cover` reads only ``group.table`` and the ranks to make
    the pairs, the table, the unit, the projection and the base (the chain
    monoid of a chain as long as the ranks are many).  The cover search
    reads tables, units, projections and class maxima, all derived from
    those tables.  The validators the searches run on each entry read no
    more: `validate_fuzzy_morphism` the group tables and generators, the
    chain lengths and the ranks, and `validate_cover_morphism` the cover and
    base tables, generators and units, the projection and the class maxima.
    `_fstar` and `_f` read the pair lists and the ranks, so ``index``,
    ``image`` and ``back`` follow from the arrays; and `_verdict` reads only
    those, the group order and the chain length.  None of them reads a value
    or a label, except to word an error.  So two pairs of objects of the same
    shapes have equal hom arrays in the same order, each valid between either
    pair (or their covers), equal index arrays and equal verdicts.  A budget
    failure stores nothing.
    """
    key = ("homs", s.group, s._rank, t.group, t._rank)
    arrays = store.get(key)
    if arrays is None:
        fuzzy = enumeration.enumerate_fuzzy_morphisms(s, t, budget=budget, hom_cache=store)
        c1, c2 = _cover(store, s), _cover(store, t)
        cover = enumeration.enumerate_cover_morphisms(c1.triple, c2.triple, budget=budget)
        index = {(m.f, m.lam): i for i, m in enumerate(fuzzy)}
        listed = {(c.fstar, c.lam): j for j, c in enumerate(cover)}
        image = [listed.get((_fstar(c1, c2, m), m.lam), -1) for m in fuzzy]
        back = [index.get((_f(c1, c2, c.fstar), c.lam), -1) for c in cover]
        arrays = store[key] = _Arrays(
            [(m.f, m.lam) for m in fuzzy], [(c.fstar, c.lam) for c in cover], index, image, back
        )
    return arrays


def _respects_compositions(first: _Arrays, second: _Arrays, loops: _Arrays) -> bool:
    """Whether E(m2.m1) = E(m2).E(m1) for each m1 of Hom(a, b) and m2 of Hom(b, a).

    ``first``, ``second`` and ``loops`` are the arrays of Hom(a, b),
    Hom(b, a) and Hom(a, a).  m2.m1 is a morphism iff its arrays are listed
    in ``loops``, and E(m1), E(m2) and E(m2.m1) are cover morphisms iff their
    images are listed.  Then all three share lam, so they are equal iff the
    fstar arrays of the listed images compose.  Each composite array is
    read by one `_after` call on the array of m2 or E(m2).
    """
    if not (first.fuzzy and second.fuzzy):
        return True
    if -1 in first.image or -1 in second.image:
        return False
    seconds = [(f, lam, second.cover[i][0]) for (f, lam), i in zip(second.fuzzy, second.image)]
    index, image, cover = loops.index, loops.image, loops.cover
    for (f, lam), i in zip(first.fuzzy, first.image):
        f_then, lam_then, fstar_then = _after(f), _after(lam), _after(first.cover[i][0])
        for f2, lam2, fstar2 in seconds:
            at = index.get((f_then(f2), lam_then(lam2)), -1)
            if at < 0 or image[at] < 0 or cover[image[at]][0] != fstar_then(fstar2):
                return False
    return True


def _keeps_identity(loops: _Arrays, fz: FuzzySubgroup) -> bool:
    """Whether E(id) = id, read off the arrays of Hom(fz, fz)."""
    at = loops.index.get((tuple(range(fz.n)), tuple(range(len(fz.chain)))), -1)
    if at < 0 or loops.image[at] < 0:
        return False
    fstar = loops.cover[loops.image[at]][0]
    return fstar == tuple(range(len(fstar)))


def _after(first: tuple[int, ...]):
    """The map from an array ``second`` to the array of first, then second."""
    if len(first) == 1:
        (x,) = first
        return lambda second: (second[x],)
    return itemgetter(*first)


def _verdict(store: dict, a: FuzzySubgroup, b: FuzzySubgroup, budget: int) -> dict:
    """The verdict of (a, b), decided once and kept on the record of Hom(a, b).

    The arrays of Hom(a, b), Hom(b, a), Hom(a, a) and Hom(b, b) are read in
    that order (`_homs`).  Those of a pair of shapes (group and rank vector)
    not met yet are found by its fuzzy search and then its cover search,
    each with the whole ``budget``.  The verdict is index arithmetic over
    those four: no morphism is embedded, validated or reconstructed again.
    That decides the same conditions, because a hom-set is exhaustive, each
    of its entries passed its validator between objects of the same shapes,
    which is passing it between any such objects, and E and R keep lam:

    - id_a is a morphism iff it is listed in Hom(a, a), and E(id_a) is the
      identity cover morphism iff its image is listed and the fstar array
      of that listed cover morphism is the identity array;
    - E(m) is a cover morphism iff its arrays are listed, so image[i] >= 0;
    - R(c) is a morphism of Hom(a, b) iff its arrays are listed, so
      back[j] >= 0;
    - E(R(c_j)) = c_j iff image[back[j]] == j, and R(E(m_i)) = m_i iff
      back[image[i]] == i;
    - composites a->b->a and b->a->b as in `_respects_compositions`: those
      of (b, a) too, so read off Hom(b, a)'s verdict if that came first, and
      checked once when a and b have one shape (the four records are one).

    So the verdict accepts exactly the pairs that embedding and validating
    every morphism accepts, and a broken enumerator or embedding is recorded
    as the first failed condition instead of raising.  It is kept once every
    record is found and every check done, so a call that raises keeps none.
    """
    ab, ba = _homs(store, a, b, budget), _homs(store, b, a, budget)
    aa, bb = _homs(store, a, a, budget), _homs(store, b, b, budget)
    image, back = ab.image, ab.back

    identity_ok = _keeps_identity(aa, a) and _keeps_identity(bb, b)
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

    if ba.verdict is not None:
        composition_ok = ba.verdict["composition_ok"]
    else:
        composition_ok = _respects_compositions(ab, ba, aa) and (
            ba is ab or _respects_compositions(ba, ab, bb)
        )
    if not composition_ok:
        failures.append("embedding does not respect a composition")

    ab.verdict = dict(
        bijection=tuple(image), identity_ok=identity_ok, faithful=faithful, full=full,
        roundtrip_ok=roundtrip_ok, composition_checks=2 * len(ab.fuzzy) * len(ba.fuzzy),
        composition_ok=composition_ok, counterexample=failures[0] if failures else None,
    )
    return ab.verdict


def verify_embedding(
    source: FuzzySubgroup,
    target: FuzzySubgroup,
    *,
    budget: int = DEFAULT_BUDGET,
    hom_cache: dict | None = None,
) -> EmbeddingCertificate:
    """Certify functoriality, faithfulness and fullness on one object pair.

    The certificate is the verdict of the pair's shapes (`_verdict`) with
    the morphisms of the arrays of Hom(source, target), between source and
    target and between their covers.  A shared ``hom_cache`` dict, owned by
    the caller, keeps covers, hom records with their verdicts and group
    hom-sets across many pairs.  So each hom-set is searched, validated and
    indexed, and each verdict decided, once per ordered pair of shapes; each
    group hom-set is searched once per group pair; and a pair whose verdict
    is kept reads one hom record and two covers.  A search read from it
    makes no budget check again.
    """
    store = {} if hom_cache is None else hom_cache
    homs = _homs(store, source, target, budget)
    verdict = homs.verdict or _verdict(store, source, target, budget)
    c1, c2 = _cover(store, source).triple, _cover(store, target).triple
    return EmbeddingCertificate(
        source=source,
        target=target,
        fuzzy_homs=tuple(FuzzyMorphism(source, target, f, lam) for f, lam in homs.fuzzy),
        cover_homs=tuple(CoverMorphism(c1, c2, fstar, lam) for fstar, lam in homs.cover),
        **verdict,
    )
