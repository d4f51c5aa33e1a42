"""The functor that fully embeds fuzzy subgroups into F-inverse covers.

It sends a fuzzy subgroup to its cover triple and a morphism (f, lambda) to
(fstar, lambda) with fstar acting componentwise on admissible pairs; the way
back reads f off the images of the class maxima.  Both directions are array
maps that validate nothing, `_fstar` and `_f`: `embed_morphism` and
`reconstruct_morphism` validate what they build, and `verify_embedding`
certifies a pair of objects by index arithmetic over the exhaustively
enumerated hom-sets between them and of each to itself.  The arrays of those
hom-sets, the positions that link the two and the certificate's verdict
depend only on the shapes of the objects (group and rank vector), and so
does whether an array passes its validator; so they are kept, and the
verdict decided, once per ordered pair of shapes.  An automorphism pair of
the two groups carries the hom-sets of one pair of shapes, with the
positions that link them, onto those of another, so they are searched, each
entry validated, and linked once per orbit of shape pairs, on the first pair
of the caller's objects in it, and carried to the other pairs of the orbit
by way of the pair of the two orbits' least shapes, each kept as a rank
vector (`_orbit`, `_homs`); the identity and composite checks are decided
once per unordered pair of orbits, on the caller's records, and kept on
the least shapes' (`_verdict`).  So a fresh store searches only hom-sets
between the objects it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Optional

from . import enumeration
from .cover import (
    CoverMonoid,
    CoverMorphism,
    CoverTriple,
    _starts,
    build_cover,
    validate_cover_morphism,
)
from .errors import DEFAULT_BUDGET, NotEmbeddingImage, ReconstructionMismatch, ValidationError
from .fuzzy import FuzzyMorphism, FuzzySubgroup, validate_fuzzy_morphism
from .search import tuple_getter


def _fstar(c1: CoverMonoid, c2: CoverMonoid, homs) -> list[tuple[int, ...]]:
    """The fstar array of each (f, lam) of ``homs``: fstar(u, x) = (lam(u),
    f(x)) as pair indices, -1 where that pair is not admissible.

    The pairs of c1 are read once per call, and each image pair is looked
    up in c2's pair index, which holds exactly the admissible pairs.
    """
    index = c2.pair_index
    at_u, at_x = tuple_getter(c1.projection), tuple_getter([x for _, x in c1.pairs])
    return [tuple(map(index.get, zip(at_u(lam), at_x(f)), repeat(-1))) for f, lam in homs]


def _f(c1: CoverMonoid, c2: CoverMonoid, fstars) -> list[tuple[int, ...]]:
    """The f array of each fstar array of ``fstars``: f(x) is the group
    component of fstar at the class maximum (mu(x), x), which is the last
    pair over x, at start[x + 1] - 1 (`_starts`)."""
    elements = [x for _, x in c2.pairs]
    at_maxima = tuple_getter([end - 1 for end in _starts(c1.source._rank)[1:]])
    return [tuple(map(elements.__getitem__, at_maxima(fstar))) for fstar in fstars]


def _embed(c1: CoverMonoid, c2: CoverMonoid, m: FuzzyMorphism) -> CoverMorphism:
    """E(m), validated; an inadmissible image pair, -1 in fstar, fails as NotHomomorphism."""
    (fstar,) = _fstar(c1, c2, [(m.f, m.lam)])
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
    (f,) = _f(c1, c2, [c.fstar])
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
    """Hom(s, t) of one ordered pair of shapes: both hom-sets as arrays, linked once.

    ``fuzzy`` lists the (f, lam) and ``cover`` the (fstar, lam) arrays of
    the two hom-sets as the enumerators return them, ``image[i]`` is the
    position of the embedding of ``fuzzy[i]`` in ``cover`` and ``back[j]``
    that of (f read off ``cover[j]``, lam) in ``fuzzy``, each -1 where it
    is not listed; ``image`` is a tuple, the certificate's ``bijection``.
    ``verdict`` is None until `_verdict` sets it, once: the fields of a
    certificate of (s, t) other than its objects and morphisms.  ``checks``
    is None but on the records of two orbits' least shapes, where
    `_verdict` sets it, once for Hom(s, t) and Hom(t, s): the identity and
    composite fields of the verdict of every pair of those orbits.
    """

    fuzzy: list[tuple[tuple[int, ...], tuple[int, ...]]]
    cover: list[tuple[tuple[int, ...], tuple[int, ...]]]
    image: tuple[int, ...]
    back: list[int]
    verdict: Optional[dict] = None
    checks: Optional[dict] = None


# A certification keeps covers, hom records and group hom-sets in ``store``,
# the caller's ``hom_cache`` or a fresh dict, under ("cover", fz), ("homs",
# s.group, s._rank, t.group, t._rank) and ("group homs", g, h); and, under
# ("orbit", g, ranks), the least rank vector of each shape's orbit, with the
# maps to and from it that `_homs` transports along.  Covers are kept per
# object, as a certificate's cover morphisms run between the value-labelled
# covers of its own objects, and only the caller's objects get one.  Every
# entry is a pure function of its key, so none depends on the order of the
# calls.  Nothing is stored for a build that raised.  No other module names
# a store key.

def _cover(store: dict, fz: FuzzySubgroup) -> CoverMonoid:
    cover = store.get(("cover", fz))
    if cover is None:
        cover = store[("cover", fz)] = build_cover(fz)
    return cover


def _group_homs(store: dict, g, h, budget: int) -> list[tuple[int, ...]]:
    """Hom(g, h), kept under ("group homs", g, h) once its search has
    finished within ``budget``; a kept one is read with no budget check."""
    homs = store.get(("group homs", g, h))
    if homs is None:
        homs = store[("group homs", g, h)] = enumeration.enumerate_group_homomorphisms(g, h, budget)
    return homs


def _automorphisms(store: dict, group, budget: int) -> list[tuple[int, ...]]:
    """The automorphisms of ``group``: the bijections among its endomorphisms."""
    return [f for f in _group_homs(store, group, group, budget) if len(set(f)) == group.n]


def _orbit(store: dict, fz: FuzzySubgroup, budget: int) -> tuple:
    """The least shape of the orbit of fz's shape, as its rank vector, with
    the `_carry` maps from fz's shape onto it and back, kept per shape.

    The orbit is named by the least of the rank vectors ranks.gamma over the
    automorphisms gamma of fz's group: two shapes of one group have the same
    least vector iff an automorphism carries one onto the other.  With gamma
    the least automorphism that reaches it, gamma^-1 carries the shape onto
    the least one and gamma carries it back.
    """
    key = ("orbit", fz.group, fz._rank)
    orbit = store.get(key)
    if orbit is None:
        ranks = fz._rank
        least, gamma = min(
            (tuple(map(ranks.__getitem__, gamma)), gamma)
            for gamma in _automorphisms(store, fz.group, budget)
        )
        carries = _carry(ranks, _order(gamma), least), _carry(least, gamma, ranks)
        orbit = store[key] = (least, *carries)
    return orbit


def _order(keys: list) -> list[int]:
    """The positions of ``keys`` sorted by their keys: of a permutation, its inverse."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _carry(ranks: tuple, phi: list, into: tuple):
    """The element and cover-pair maps from a shape onto one of its orbit.

    ``phi`` is an automorphism that carries the shape of rank vector
    ``ranks`` onto that of ``into`` (ranks = into . phi), and so the pair (u,
    x) of the first's cover onto (u, phi(x)).  Returns phi and that map of
    pair positions, both as arrays.
    """
    start = _starts(into)
    pairs = [start[y] + u for y, r in zip(phi, ranks) for u in range(r + 1)]
    return phi, pairs


def _transported(first: _Arrays, source: tuple, target: tuple) -> _Arrays:
    """The record of Hom(s, t) carried from ``first``, that of Hom(s0, t0),
    each side sorted as its enumerator lists it.

    ``source`` is (phi, A) of `_carry` from s onto s0 and ``target`` is
    (beta, B) from t0 onto t: (f, lam) goes to (beta.f.phi, lam) and (fstar,
    lam) to (B.fstar.A, lam).  As transport commutes with E and R (`_homs`),
    the carried morphism at a new position has the carried image and way
    back of the one it came from: ``image`` and ``back`` are those of
    ``first``, read in the new order of their own side and renumbered by
    that of the other, -1 staying -1.
    """
    (at_phi, at_in), (beta, pairs_out) = map(tuple_getter, source), target
    fuzzy = [(tuple_getter(at_phi(f))(beta), lam) for f, lam in first.fuzzy]
    cover = [(tuple_getter(at_in(fstar))(pairs_out), lam) for fstar, lam in first.cover]
    by_fuzzy, by_cover = _order(fuzzy), _order(list(map(itemgetter(1, 0), cover)))
    # the new position of each old one, and -1 last, so that -1 stays -1
    to_fuzzy, to_cover = _order(by_fuzzy) + [-1], _order(by_cover) + [-1]
    return _Arrays(
        [fuzzy[i] for i in by_fuzzy],
        [cover[j] for j in by_cover],
        tuple(to_cover[first.image[i]] for i in by_fuzzy),
        [to_fuzzy[first.back[j]] for j in by_cover],
    )


def _homs(store: dict, s: FuzzySubgroup, t: FuzzySubgroup, budget: int) -> _Arrays:
    """Hom(s, t) as arrays, searched once per orbit of shape pairs and carried to the rest.

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
    `_fstar` and `_f` read the pair lists and the ranks, so ``image`` and
    ``back`` follow from the arrays; and `_verdict` reads only those, the
    group order and the chain length.  None of them reads a value or a
    label, except to word an error.  So two pairs of objects of the same
    shapes have equal hom arrays in the same order, each valid between either
    pair (or their covers), equal position arrays and equal verdicts.

    A record not kept is carried from that of the two orbits' least shapes
    (`_orbit`).  When that is not kept either, the caller's own pair is
    searched, fuzzy side over the kept group hom-set (`_group_homs`), then
    cover side, linked with the caller's covers (`_indexed`), and carried
    to the least shapes, where it is kept.  Let alpha be an automorphism of
    G and beta one of H, write alpha.r for r.alpha^-1, and let s =
    alpha.s0 and t = beta.t0.  Then (f, lam) -> (beta.f.alpha^-1, lam) is a
    bijection from Hom(s0, t0) onto Hom(s, t): beta.f.alpha^-1 is a group
    hom, lam is unchanged, and mu_t(beta f alpha^-1 x) = mu_t0(f alpha^-1
    x) = lam(mu_s0 (alpha^-1 x)) = lam(mu_s(x)); the inverse map uses
    alpha^-1 and beta^-1.  (u, x) -> (u, alpha(x)) is an isomorphism from
    the cover of s0 onto that of s that keeps the projection, so it keeps
    class maxima, and (fstar, lam) -> (B.fstar.A^-1, lam), with A and B
    those isomorphisms, is a bijection of the cover hom-sets, which
    commutes with the embedding fstar(u, x) = (lam(u), f(x)), an
    inadmissible pair staying one, and with reading f off the class maxima.
    So the carried arrays, sorted into the enumerators' order, are those a
    search of Hom(s, t) finds, each valid, and are not validated again; and
    the embedding of a carried (f, lam), or the morphism read off a carried
    (fstar, lam), is listed iff that of the one it came from is, at the
    carried position.  So every record but a searched one, the least
    shapes' included, is one `_transported` call, with the maps `_orbit`
    keeps per shape, and each orbit pair is linked once.  A carried record
    runs no search and makes no budget check; a search over budget stores
    nothing, so the next pair of its orbit pair is searched instead.

    The verdict's checks of identities and composites depend only on the
    pair of orbits.  Transport by (alpha, beta) commutes with E and with R,
    as above, and with composition: for m1 of Hom(s0, t0) and m2 of Hom(t0,
    s0), the composite m2.m1 goes to (alpha m2 beta^-1)(beta m1 alpha^-1) =
    alpha (m2 m1) alpha^-1, which is how Hom(s0, s0) goes to Hom(s, s), and
    the identity of s0 goes to that of s, on either side.  So the records of
    (s, t), (t, s), (s, s) and (t, t) pass those checks iff those of (s0,
    t0), (t0, s0), (s0, s0) and (t0, t0) do, and have as many composites.
    """
    key = ("homs", s.group, s._rank, t.group, t._rank)
    arrays = store.get(key)
    if arrays is None:
        (r, onto_r, from_r), (q, onto_q, from_q) = (_orbit(store, x, budget) for x in (s, t))
        least_key = ("homs", s.group, r, t.group, q)
        least = store.get(least_key)
        if least is None:
            c1, c2 = _cover(store, s), _cover(store, t)
            group_homs = _group_homs(store, s.group, t.group, budget)
            found = enumeration.enumerate_fuzzy_morphisms(s, t, budget, group_homs=group_homs)
            listed = enumeration.enumerate_cover_morphisms(c1.triple, c2.triple, budget=budget)
            fuzzy = [(m.f, m.lam) for m in found]
            arrays = _indexed(c1, c2, fuzzy, [(c.fstar, c.lam) for c in listed])
            if least_key != key:
                store[least_key] = _transported(arrays, from_r, onto_q)
        else:
            arrays = _transported(least, onto_r, from_q)
        store[key] = arrays
    return arrays


def _indexed(c1: CoverMonoid, c2: CoverMonoid, fuzzy: list, cover: list) -> _Arrays:
    """The `_Arrays` of the (f, lam) arrays ``fuzzy`` and the (fstar, lam) arrays ``cover``."""
    index = {arrays: i for i, arrays in enumerate(fuzzy)}
    listed = {arrays: j for j, arrays in enumerate(cover)}
    fstars, fs = _fstar(c1, c2, fuzzy), _f(c1, c2, map(itemgetter(0), cover))
    image = tuple(listed.get((fstar, lam), -1) for fstar, (_, lam) in zip(fstars, fuzzy))
    back = [index.get((f, lam), -1) for f, (_, lam) in zip(fs, cover)]
    return _Arrays(fuzzy, cover, image, back)


def _respects_compositions(first: _Arrays, second: _Arrays, loops: _Arrays) -> bool:
    """Whether E(m2.m1) = E(m2).E(m1) for each m1 of Hom(a, b) and m2 of Hom(b, a).

    ``first``, ``second`` and ``loops`` are the arrays of Hom(a, b),
    Hom(b, a) and Hom(a, a).  m2.m1 is a morphism iff its arrays are listed
    in ``loops``, and E(m1), E(m2) and E(m2.m1) are cover morphisms iff their
    images are listed.  Then all three share lam, so they are equal iff the
    fstar arrays of the listed images compose.  Each composite array is
    read by one `search.tuple_getter` call on the array of m2 or E(m2), and
    the image of m2.m1 off ``loops``' own lists.
    """
    if not (first.fuzzy and second.fuzzy):
        return True
    if -1 in first.image or -1 in second.image:
        return False
    seconds = [(f, lam, second.cover[i][0]) for (f, lam), i in zip(second.fuzzy, second.image)]
    image, cover = dict(zip(loops.fuzzy, loops.image)), loops.cover
    for (f, lam), i in zip(first.fuzzy, first.image):
        f_then, lam_then, fstar_then = map(tuple_getter, (f, lam, first.cover[i][0]))
        for f2, lam2, fstar2 in seconds:
            at = image.get((f_then(f2), lam_then(lam2)), -1)
            if at < 0 or cover[at][0] != fstar_then(fstar2):
                return False
    return True


def _keeps_identity(loops: _Arrays, fz: FuzzySubgroup) -> bool:
    """Whether E(id) = id, read off the arrays of Hom(fz, fz)."""
    identity = (tuple(range(fz.n)), tuple(range(len(fz.chain))))
    at = dict(zip(loops.fuzzy, loops.image)).get(identity, -1)
    if at < 0:
        return False
    fstar = loops.cover[at][0]
    return fstar == tuple(range(len(fstar)))


def _verdict(store: dict, ab: _Arrays, a: FuzzySubgroup, b: FuzzySubgroup, budget: int) -> dict:
    """The verdict of (a, b), decided once and kept on ``ab``, the record of Hom(a, b).

    It reads that record (`_homs`) and the identity and composite checks of
    the orbits of a and b, kept on the records of Hom(r, q) and Hom(q, r),
    where r and q are the least shapes of those orbits (`_orbit`); the first
    is kept, as ``ab`` is (`_homs`).  The checks are decided once per unordered pair of orbits, on the first pair
    of objects of those orbits that the caller asks about, from its records
    Hom(a, b), Hom(b, a), Hom(a, a) and Hom(b, b), read in that order; they
    hold for every pair of those orbits iff they hold for (a, b), as
    transport commutes with E and with composition (`_homs`).  A record not
    found yet is carried from its orbit pair's least shapes, or, if theirs
    is not found either, found by its fuzzy search and then its cover
    search, each with the whole ``budget``.  The verdict is index arithmetic
    over those records: no morphism is embedded, validated or reconstructed
    again.
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
    - composites a->b->a and b->a->b as in `_respects_compositions`,
      checked once when a and b are of one shape (the four records are one).

    So the verdict accepts exactly the pairs that embedding and validating
    every morphism accepts, and a broken enumerator or embedding is recorded
    as the first failed condition instead of raising.  Checks and verdict
    are kept once every record they read is found and every check done, so
    a call that raises keeps neither.
    """
    (r, *_), (q, *_) = _orbit(store, a, budget), _orbit(store, b, budget)
    least = store["homs", a.group, r, b.group, q]
    if least.checks is None:
        ba, aa, bb = (_homs(store, s, t, budget) for s, t in ((b, a), (a, a), (b, b)))
        least.checks = store["homs", b.group, q, a.group, r].checks = dict(
            identity_ok=_keeps_identity(aa, a) and _keeps_identity(bb, b),
            composition_checks=2 * len(ab.fuzzy) * len(ba.fuzzy),
            composition_ok=_respects_compositions(ab, ba, aa)
            and (ba is ab or _respects_compositions(ba, ab, bb)),
        )
    kept, image, back = least.checks, ab.image, ab.back

    failures = [] if kept["identity_ok"] else ["embedding does not send an identity to an identity"]
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

    if not kept["composition_ok"]:
        failures.append("embedding does not respect a composition")

    ab.verdict = dict(
        bijection=image, faithful=faithful, full=full, roundtrip_ok=roundtrip_ok,
        counterexample=failures[0] if failures else None, **kept,
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
    the caller, keeps covers, hom records with their verdicts, group
    hom-sets and the orbits of shapes across many pairs.  So each hom-set is
    searched, validated and linked once per orbit of shape pairs under the
    automorphisms of the two groups, on the first pair of the caller's
    objects in it, and carried to the other pairs of the orbit; each
    verdict is decided once per ordered pair of shapes; identities and
    composites are checked once per unordered pair of orbits; each group
    hom-set is searched once per group pair; and a pair whose verdict is
    kept reads one hom record and two covers.  A fresh dict searches only
    hom-sets between source and target.  A search read from it, or carried,
    makes no budget check again.  Every entry of the dict is a pure
    function of its key, so no entry depends on the order of the calls.
    """
    store = {} if hom_cache is None else hom_cache
    homs = _homs(store, source, target, budget)
    verdict = homs.verdict or _verdict(store, homs, source, target, budget)
    c1, c2 = _cover(store, source).triple, _cover(store, target).triple
    return EmbeddingCertificate(
        source=source,
        target=target,
        fuzzy_homs=tuple(FuzzyMorphism(source, target, f, lam) for f, lam in homs.fuzzy),
        cover_homs=tuple(CoverMorphism(c1, c2, fstar, lam) for fstar, lam in homs.cover),
        **verdict,
    )
