"""The category of F-inverse covers, and the cover of a fuzzy subgroup.

Objects are cover triples (F-inverse monoid, base, projection); morphisms are
pairs (fstar, lam) that commute with the projections.  `build_cover` realizes
the admissible-pair monoid of a fuzzy subgroup with the componentwise product
and certifies its triple, while `cover_from_premorphism` performs the same
construction from any certified dual premorphism into an arbitrary inverse
monoid.  The two are implemented independently so they can be played against
each other in tests, and both return a `CoverMonoid`.  Of the tables they
make, `cover_from_premorphism` validates its pair table in full, while
`build_cover` validates only its chain base and builds the cover monoid
from the theorem that makes it one: closure, associativity and the unit
follow from the fuzzy subgroup axioms, and the inverse of (u, x) is
(u, x^-1) in closed form; the tests validate every cover it builds as the
oracle of that proof.  `build_cover` keeps
each cover monoid it builds in its group's ``facts``, and `cover_report`
and the round trip keep their results in the cover monoid's, so each is
certified once per shape and read back by every later cover of that shape
under its own names.  `premorphism_from_cover` inverts the
construction: it recovers psi from any F-inverse cover and certifies the
round trip by the canonical isomorphism t -> (pi(t), sigma(t)) onto the
pairs, checked on the columns of the cover's generators; it shares the pair
list with `cover_from_premorphism`, and builds the shared pair table only to
name a fault.
`monoid_isomorphic`, the exhaustive isomorphism search by generator images
(`search.generated_maps`), is what the round trip used before; the tests
keep it as the oracle of that check.
Closed-form descriptions of the cover's structure (idempotents, unit,
natural order, class maxima) are likewise computed as separate formulas and
cross-checked against the generic derived structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DEFAULT_BUDGET,
    AlgebraError,
    CommutationFailure,
    MaximaNotPreserved,
    NotComposable,
    NotHomomorphism,
    ReconstructionMismatch,
    ValidationError,
)
from .fuzzy import FuzzySubgroup
from .groups import _generators
from .monoids import (
    DualPremorphism,
    FiniteInverseMonoid,
    _derive,
    _relabeled,
    check_projection,
    green_relations,
    is_monoid_homomorphism,
    validate_dual_premorphism,
    validate_inverse_monoid,
)
from .search import generated_maps


# -- cover triples and their morphisms ----------------------------------------

@dataclass(frozen=True)
class CoverTriple:
    """A certified cover object: F-inverse monoid, base monoid, projection."""

    monoid: FiniteInverseMonoid
    base: FiniteInverseMonoid
    projection: tuple[int, ...]


def cover_triple(
    monoid: FiniteInverseMonoid, base: FiniteInverseMonoid, projection: Sequence[int]
) -> CoverTriple:
    """Certify the triple: F-inverse, surjective idempotent-separating projection."""
    projection = tuple(projection)
    check_projection(monoid, base, projection)
    return CoverTriple(monoid, base, projection)


class CoverMorphism(NamedTuple):
    """A pair (fstar, lam) of monoid homomorphisms commuting with projections.

    Both components send every class maximum to the maximum of its own class.
    """

    source: CoverTriple
    target: CoverTriple
    fstar: tuple[int, ...]
    lam: tuple[int, ...]


def _check_maxima_preserved(f, source: FiniteInverseMonoid, target: FiniteInverseMonoid, what: str):
    td = target.derived
    for m in source.derived.sigma_maxima:
        if m is None:
            continue
        image = f[m]
        if td.sigma_maxima[td.sigma.class_of[image]] != image:
            raise MaximaNotPreserved(
                f"{what} sends class maximum {source.names[m]} to non-maximum "
                f"{target.names[image]}",
                witness=m,
            )


def validate_cover_morphism(
    source: CoverTriple,
    target: CoverTriple,
    fstar: Sequence[int],
    lam: Sequence[int],
) -> CoverMorphism:
    """Check homomorphism, maxima-preservation and commutation conditions."""
    fstar = tuple(fstar)
    lam = tuple(lam)
    if not is_monoid_homomorphism(fstar, source.monoid, target.monoid):
        raise NotHomomorphism("fstar is not a monoid homomorphism")
    if not is_monoid_homomorphism(lam, source.base, target.base):
        raise NotHomomorphism("lam is not a monoid homomorphism")
    _check_maxima_preserved(fstar, source.monoid, target.monoid, "fstar")
    _check_maxima_preserved(lam, source.base, target.base, "lam")
    # projection . fstar against lam . projection as whole arrays; only on
    # failure is t scanned, to name the first that fails
    if list(map(target.projection.__getitem__, fstar)) != list(
        map(lam.__getitem__, source.projection)
    ):
        for t in range(source.monoid.n):
            if target.projection[fstar[t]] != lam[source.projection[t]]:
                raise CommutationFailure(
                    f"projection(fstar({source.monoid.names[t]})) != "
                    f"lam(projection({source.monoid.names[t]}))",
                    witness=t,
                )
    return CoverMorphism(source, target, fstar, lam)


def identity_cover_morphism(obj: CoverTriple) -> CoverMorphism:
    return validate_cover_morphism(
        obj, obj, tuple(range(obj.monoid.n)), tuple(range(obj.base.n))
    )


def compose_cover_morphisms(second: CoverMorphism, first: CoverMorphism) -> CoverMorphism:
    """The composite pair, re-validated (maxima preservation included)."""
    if first.target != second.source:
        raise NotComposable("target of the first morphism differs from source of the second")
    fstar = tuple(second.fstar[v] for v in first.fstar)
    lam = tuple(second.lam[v] for v in first.lam)
    return validate_cover_morphism(first.source, second.target, fstar, lam)


class CoverMonoid:
    """An admissible-pair cover: pairs (u, h) with u <= psi(h), h in a group.

    ``source`` is what the pairs were built from: a fuzzy subgroup
    (`build_cover`, u a chain index and psi the ranks) or a dual
    premorphism (`cover_from_premorphism`).  Pairs are ordered
    lexicographically by (group element index, base element index) so every
    report and table iterates deterministically.  ``triple`` is the
    certified cover triple; its ``projection`` maps each pair to its first
    coordinate, an element of ``base``.  `cover_report` and
    `hclass_level_isomorphism` refuse any source but a fuzzy subgroup.
    """

    __slots__ = ("source", "pairs", "pair_index", "triple", "monoid", "base", "projection")

    def __init__(self, source, pairs, triple: CoverTriple):
        self.source = source
        self.pairs = tuple(pairs)
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        self.triple = triple
        self.monoid, self.base, self.projection = triple.monoid, triple.base, triple.projection

    @property
    def n(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"CoverMonoid(source={self.source!r}, size={self.n})"


def _fuzzy_source(cover: CoverMonoid, what: str) -> FuzzySubgroup:
    if not isinstance(cover.source, FuzzySubgroup):
        kind = type(cover.source).__name__
        raise ValidationError(f"{what} needs a cover from build_cover, not from a {kind}")
    return cover.source


def _pair_name(value, label) -> str:
    return f"({value},{label})"


def _starts(ranks) -> list[int]:
    """Where the pairs over each element begin in the cover that `build_cover`
    makes of these ranks: pairs run by element, then rank, so (u, x) sits at
    start[x] + u, and start[n] is the size of the cover."""
    return list(accumulate([r + 1 for r in ranks], initial=0))


def build_cover(fz: FuzzySubgroup) -> CoverMonoid:
    """Build the admissible-pair cover of a fuzzy subgroup.

    ``fz`` must have come through the validators, as every library route
    makes one: its group through `validate_group`, its ranks through
    `fuzzy._validate_ranks`.  The cover monoid is then built from the
    theorem that makes it one, not validated: its table is added up from
    the group table and the ranks, its inverses are read off in closed
    form, its generators are picked from its rows, and its structure is
    derived (`monoids._derive`).  What the validators guarantee proves
    every monoid axiom, writing r for the ranks and (u, x) for the pair at
    ``start[x] + u``:

    - closure is axiom 1: min(u, v) <= min(r(x), r(y)) <= r(xy), so the
      product (min(u, v), xy) of two pairs is a pair;
    - associativity and the unit (top, e), a pair as r(e) is the top,
      hold as the pairs are a submonoid of the direct product of the chain
      monoid (min, top) and the group;
    - (u, x^-1) is a pair, by axiom 2: r(x^-1) = r(x) >= u;
    - (u, x)(u, x^-1)(u, x) = (u, x) and (u, x^-1)(u, x)(u, x^-1) =
      (u, x^-1), so every element has an inverse, and the idempotents,
      exactly the pairs (u, e) as xx = x only at e, commute, as min does.

    So the cover is an inverse monoid (Howie, *Fundamentals of Semigroup
    Theory*, 1995, Thm 5.1.1), where each inverse is unique, and (u, x^-1)
    is the inverse of (u, x): ``start[group.inverses[x]] + u``.  Its
    generators are those the validation would find, `groups._generators`
    of the rows, so every search plan is unchanged.  The tests run the
    full validation on every cover built here as an oracle.  The base is
    still validated (`chain_monoid`), the triple is still checked to be
    F-inverse with a surjective idempotent-separating projection onto the
    chain monoid, and the monoid to be Clifford.  Failures here signal a
    library bug, not bad input, hence plain AlgebraError.

    This is the one writer of monoids into a group's ``facts``, so every
    subgroup of one group shares them, listed, parsed or validated alone.
    The base is kept under ("chain", len(chain)) and the cover monoid under
    ("cover", ranks), both only once every check has passed, and a later
    subgroup whose key is found gets the kept monoid under its own names
    (`monoids._relabeled`) with no check re-run.  That is sound because
    each key, with the group's table, decides every check.  A validated
    subgroup's chain is strictly increasing within [0, 1], so the checks of
    `chain_monoid` pass, and its table (min on k indices) and unit (k - 1)
    are functions of the length k alone; its names are ``str(v)`` of the
    values.  The pairs are ordered by element, then rank, so the cover's
    table, unit and inverses are functions of ``group.table`` and the
    ranks, and the projection is the ranks.  The values only name the
    elements: the construction, the projection check and the Clifford
    check read names only to word an error, so a kept cover and its
    relabelings share one derived structure, sigma-quotient included.
    """
    group = fz.group
    ranks = fz._rank
    pairs = [(u, x) for x, r in enumerate(ranks) for u in range(r + 1)]
    labels = [str(v) for v in fz.chain]
    names = [_pair_name(labels[u], group.names[x]) for u, x in pairs]
    projection = tuple(u for u, _ in pairs)
    facts = group.facts
    base_key, cover_key = ("chain", len(fz.chain)), ("cover", ranks)
    base = facts.get(base_key)
    base = fz.base if base is None else _relabeled(base, labels)
    shared = facts.get(cover_key)
    if shared is not None:
        return CoverMonoid(fz, pairs, CoverTriple(_relabeled(shared, names), base, projection))
    # (w, z) sits at start[z] + w; the product of (u, x) and (v, y) is
    # (min(u, v), x*y), and each row is added up whole from the starts of
    # its products and the clamped ranks
    start = _starts(ranks)
    elements = [x for _, x in pairs]
    starts = [
        list(map(start.__getitem__, map(row.__getitem__, elements))) for row in group.table
    ]
    clamped = [[v if v < u else u for v in projection] for u in range(len(fz.chain))]
    table = tuple([tuple(map(add, starts[x], clamped[u])) for u, x in pairs])
    del starts, clamped  # read only to add up the table: not held through the derivation
    unit = start[group.identity] + len(fz.chain) - 1
    inverse = [start[group.inverses[x]] + u for u, x in pairs]  # (u, x)^-1 = (u, x^-1)
    monoid = FiniteInverseMonoid(
        names, table, unit, inverse, _derive(table, inverse), _generators(table), {}
    )
    triple = cover_triple(monoid, base, projection)
    if not monoid.derived.clifford:
        raise AlgebraError("cover of a fuzzy subgroup must be Clifford")
    facts[base_key], facts[cover_key] = base, monoid
    return CoverMonoid(fz, pairs, triple)


@dataclass(frozen=True)
class CoverReport:
    """Closed-form structure of a cover, cross-checked against the generic one.

    All fields describe pairs by their (chain index, element index) form;
    the ``*_match`` flags record agreement with the structure derived from
    the multiplication table alone.
    """

    unit: tuple[int, int]
    idempotents: tuple[tuple[int, int], ...]
    sigma_classes: tuple[tuple[tuple[int, int], ...], ...]
    sigma_maxima: tuple[tuple[int, int], ...]
    unit_match: bool
    idempotents_match: bool
    order_match: bool
    sigma_match: bool
    maxima_match: bool

    @property
    def all_match(self) -> bool:
        return (
            self.unit_match
            and self.idempotents_match
            and self.order_match
            and self.sigma_match
            and self.maxima_match
        )


def cover_report(cover: CoverMonoid) -> CoverReport:
    """Compute the closed forms for unit, idempotents, order and class maxima.

    Closed forms: idempotents are the pairs over the group identity, the unit
    is (mu(identity), identity), (u,x) <= (v,y) iff x == y and u <= v, the
    class of (u,x) consists of all pairs over x with maximum (mu(x), x).
    Each is compared against the generic computation on the table.

    The report is kept in the cover monoid's ``facts`` dict, which its
    relabelings share, under the group's identity and order, the chain's
    length, the ranks and the pairs: besides these it reads only the
    monoid's unit and derived structure, which are functions of the table
    the dict belongs to, so the key decides the report.  The values only
    name pairs and are never read.  A call that raises keeps nothing.
    """
    fz = _fuzzy_source(cover, "cover_report")
    group = fz.group
    top = len(fz.chain) - 1
    facts = cover.monoid.facts
    key = ("report", group.identity, group.n, top, fz._rank, cover.pairs)
    report = facts.get(key)
    if report is not None:
        return report
    d = cover.monoid.derived

    unit_pair = (top, group.identity)
    unit_match = cover.pairs[cover.monoid.unit] == unit_pair

    idem_closed = tuple(p for p in cover.pairs if p[1] == group.identity)
    idem_generic = tuple(cover.pairs[i] for i in d.idempotents)
    idempotents_match = idem_closed == idem_generic

    # the pairs over x sit together in ascending rank, so the bitset of the
    # i-th pair (u, x) has exactly the bits from i up to the pair (mu(x), x)
    # set and is compared whole; ``ends[i]`` is one past that pair
    ends = [cover.pair_index[(fz.mu_index(x), x)] + 1 for _, x in cover.pairs]
    order_match = all(
        bits == (1 << end) - (1 << i) for i, (bits, end) in enumerate(zip(d.above, ends))
    )

    sigma_closed = tuple(
        tuple((u, x) for u in range(fz.mu_index(x) + 1))
        for x in range(group.n)
    )
    sigma_generic = tuple(
        tuple(cover.pairs[i] for i in cls) for cls in d.sigma.classes
    )
    sigma_match = sorted(sigma_closed) == sorted(sigma_generic)

    maxima_closed = tuple((fz.mu_index(x), x) for x in range(group.n))
    maxima_generic = tuple(
        cover.pairs[m] for m in d.sigma_maxima if m is not None
    )
    maxima_match = len(d.sigma_maxima) == group.n and sorted(
        maxima_closed
    ) == sorted(maxima_generic)

    facts[key] = report = CoverReport(
        unit=unit_pair,
        idempotents=idem_closed,
        sigma_classes=sigma_closed,
        sigma_maxima=maxima_closed,
        unit_match=unit_match,
        idempotents_match=idempotents_match,
        order_match=order_match,
        sigma_match=sigma_match,
        maxima_match=maxima_match,
    )
    return report


def hclass_level_isomorphism(cover: CoverMonoid, u: Fraction) -> dict[int, int]:
    """The H-class of the idempotent at value u, mapped onto the level subgroup.

    Computes the H-class of (u, identity) from Green's relations and checks
    it equals all pairs (u, h) with u <= mu(h), both ascending, so dropping
    the first coordinate is a bijection onto the level subset at u; then
    checks, row by row, that it keeps every product, each inside the class.
    Returns the mapping pair index -> group element index.
    """
    fz = _fuzzy_source(cover, "hclass_level_isomorphism")
    uidx = fz.chain_index(Fraction(u))
    e_pair = cover.pair_index[(uidx, fz.group.identity)]
    h_part = cover.monoid.derived.green_h
    hclass = h_part.classes[h_part.class_of[e_pair]]

    expected = tuple(
        cover.pair_index[(uidx, h)]
        for h in range(fz.group.n)
        if fz.mu_index(h) >= uidx
    )
    if hclass != expected:
        raise AlgebraError(f"H-class at value {u} differs from its closed form")

    mapping = {i: cover.pairs[i][1] for i in hclass}
    # each member's row on the class, mapped, against the group row of its
    # image; a product outside the class maps to None, in no group row
    images = list(map(mapping.__getitem__, hclass))
    image = mapping.get
    for i, x in zip(hclass, images):
        row, group_row = cover.monoid.table[i], fz.group.table[x]
        if [image(row[j]) for j in hclass] != [group_row[y] for y in images]:
            raise AlgebraError(f"H-class at value {u} projection is not a homomorphism")
    return mapping


def _pairs(psi: DualPremorphism):
    """The pairs {(u, h) : u <= psi(h)} and their index.

    Pairs are ordered by (group element, monoid element).
    """
    above = psi.monoid.derived.above
    pairs = [
        (u, h)
        for h in range(psi.group.n)
        for u in range(psi.monoid.n)
        if above[u] >> psi.psi[h] & 1
    ]
    return pairs, {p: i for i, p in enumerate(pairs)}


def _pair_table(psi: DualPremorphism):
    """The pairs {(u, h) : u <= psi(h)}, their index, product table and unit.

    Pairs are ordered by (group element, monoid element).  Each row of the
    componentwise product is looked up whole; raises AlgebraError, naming
    the first offending product, if one leaves the pair set, or if the unit
    pair is not admissible.
    """
    group = psi.group
    monoid = psi.monoid
    pairs, index = _pairs(psi)
    us = [u for u, _ in pairs]
    hs = [h for _, h in pairs]
    table = []
    for u, h in pairs:
        products = zip(map(monoid.table[u].__getitem__, us), map(group.table[h].__getitem__, hs))
        row = tuple(map(index.get, products))
        if None in row:
            v, k = pairs[row.index(None)]
            raise AlgebraError(f"product of {(u, h)} and {(v, k)} leaves the pair set")
        table.append(row)
    unit_pair = (monoid.unit, group.identity)
    if unit_pair not in index:
        raise AlgebraError("unit pair is not admissible; coverage must be broken")
    return pairs, index, table, index[unit_pair]


def cover_from_premorphism(psi: DualPremorphism) -> CoverMonoid:
    """Build the pair monoid {(u, h) : u <= psi(h)} with componentwise product.

    Works for any certified dual premorphism with coverage, chain target or
    not.  Closure of the product, validity as an inverse monoid, the
    F-inverse property and the projection contract are all checked; a
    failure would falsify the construction and raises AlgebraError.  The
    result's ``source`` is ``psi`` and its base is ``psi.monoid``.
    """
    pairs, _, table, unit = _pair_table(psi)
    names = [_pair_name(psi.monoid.names[u], psi.group.names[h]) for u, h in pairs]
    result = validate_inverse_monoid(names, table, unit)
    projection = tuple(u for u, _ in pairs)
    return CoverMonoid(psi, pairs, cover_triple(result, psi.monoid, projection))


def premorphism_from_cover(
    cover: FiniteInverseMonoid, base: FiniteInverseMonoid, projection
) -> DualPremorphism:
    """Recover the dual premorphism behind an F-inverse cover.

    With G the group quotient of the cover by its least group congruence
    sigma, psi sends each class of G to the projection of its greatest
    element.  psi is certified, and the canonical map t -> (pi(t), sigma(t))
    from the cover onto the pairs {(u, h) : u <= psi(h)} must be an
    isomorphism onto their componentwise product: defined on every t, a
    bijection onto the pairs, unit to unit pair, and product-preserving on
    the column of every generator of the cover, phi(t*g) = phi(t)*phi(g),
    where a pair product is read off the base table and the table of G.  No
    search runs, and the pair table is not built unless a check fails.

    Raises what ``check_projection`` raises (NotFInverse, NotHomomorphism,
    NotSurjective, NotIdempotentSeparating) and NotDualPremorphism or
    CoverageFailure from certifying psi.  If a later check fails, the pair
    table is built and every row compared, as a full check: a product that
    leaves the pair set, or an inadmissible unit pair, raises AlgebraError
    from ``_pair_table``; a map that is undefined, no bijection or misses
    the unit raises ReconstructionMismatch; and a product it does not keep
    raises ReconstructionMismatch naming the first failing row as witness.

    Why this certifies the round trip (Lawson, *Inverse Semigroups*, 1998):
    once ``check_projection`` passes, the cover M is F-inverse, hence
    E-unitary, so sigma meets Green's R only in the identity relation.  pi
    is idempotent-separating, so pi(s) = pi(t) gives ss^-1 = tt^-1: ker pi
    lies in H, within R.  So pi(s) = pi(t) and sigma(s) = sigma(t) force
    s = t, and the map is injective.  Its image lies in the pairs, since t
    lies below the greatest element m of its class and pi preserves the
    natural order; and it is all of them: for u <= psi(h) = pi(m) write
    u = psi(h) e with e an idempotent, lift e along the surjective pi to an
    idempotent f (f = x^-1 x for any x with pi(x) = e), and m f maps to
    (u, h).  pi and sigma are homomorphisms, so the map is an isomorphism
    whenever the input checks pass.  This check therefore accepts exactly
    the inputs on which the former one, an exhaustive isomorphism search
    between the validated rebuilt monoid and the cover, succeeds; that
    search is kept as a test oracle.  An exhaustively checked isomorphism
    onto the validated cover also proves all that validating the rebuilt
    table would: the table is a copy of the cover's, and its projection to
    the first coordinate is pi carried across.

    Generator columns suffice: the componentwise product of the base and
    G is associative, so the s with phi(t*s) = phi(t)*phi(s) for every t
    are closed under products (phi(t*s*s') = phi(t*s)*phi(s') =
    phi(t)*phi(s)*phi(s') = phi(t)*phi(s*s')).  A bijection onto the pairs
    that keeps the unit and every product with a generator therefore keeps
    every product and is an isomorphism, and its image, the pair set, is
    then closed under the product, as ``_pair_table`` would check.

    Once every check has passed, psi and its coverage witnesses are kept in
    the cover's ``facts`` dict, which its relabelings share, under the
    base's table and unit and the projection; a later call with that key
    returns them at once, over the cover's sigma-quotient, which its
    relabelings share, and over ``base``.  That is sound because the key,
    with the cover's table, decides every check: the base's inverse and
    derived structure are functions of its validated table and unit, the
    cover's generators and derived structure are shared with the dict, and
    names are read only to word an error.  A call that raises keeps nothing.
    """
    projection = tuple(projection)
    facts = cover.facts
    key = ("round trip", base.table, base.unit, projection)
    derived = cover.derived
    kept = facts.get(key)
    if kept is not None:
        return DualPremorphism(derived.sigma_quotient, base, *kept)
    check_projection(cover, base, projection)

    psi = tuple(projection[m] for m in derived.sigma_maxima)
    dp = validate_dual_premorphism(derived.sigma_quotient, base, psi)

    pairs, index = _pairs(dp)
    sigma = derived.sigma.class_of
    canonical = list(map(index.get, zip(projection, sigma)))

    def onto_pairs(unit):  # defined everywhere, a bijection onto the pairs, unit to unit
        return (
            None not in canonical
            and len(pairs) == cover.n
            and len(set(canonical)) == cover.n
            and canonical[cover.unit] == unit
        )

    def keeps_products(g):  # phi(t*g) == phi(t)*phi(g) for every t
        base_col = tuple(row[projection[g]] for row in dp.monoid.table)
        group_col = tuple(row[sigma[g]] for row in dp.group.table)
        products = zip(map(base_col.__getitem__, projection), map(group_col.__getitem__, sigma))
        return list(map(index.get, products)) == [canonical[row[g]] for row in cover.table]

    if not (
        onto_pairs(index.get((dp.monoid.unit, dp.group.identity)))
        and all(map(keeps_products, cover.generators))
    ):
        # a check failed: the full check over the pair table names the fault
        _, _, table, unit = _pair_table(dp)
        if not onto_pairs(unit):
            raise ReconstructionMismatch(
                "rebuilt pair monoid is not isomorphic to the original cover"
            )
        image = canonical.__getitem__
        for t, row in enumerate(cover.table):
            if list(map(image, row)) != list(map(table[canonical[t]].__getitem__, canonical)):
                raise ReconstructionMismatch(
                    "rebuilt pair monoid is not isomorphic to the original cover",
                    witness=t,
                )
    facts[key] = (dp.psi, dp.coverage_witness)
    return dp


def _element_signatures(monoid: FiniteInverseMonoid) -> list[tuple]:
    """The signature of each element, in order; R and L are built once."""
    d = monoid.derived
    partitions = (d.sigma, *green_relations(monoid))
    return [
        (
            x == monoid.unit,
            monoid.table[x][x] == x,
            monoid.inverse[x] == x,
            *(len(p.classes[p.class_of[x]]) for p in partitions),
            d.above[x].bit_count(),
            sum(bits >> x & 1 for bits in d.above),
        )
        for x in range(monoid.n)
    ]


def monoid_isomorphic(
    a: FiniteInverseMonoid,
    b: FiniteInverseMonoid,
    budget: int = DEFAULT_BUDGET,
) -> Optional[tuple[int, ...]]:
    """The least product- and unit-preserving bijection a -> b, or None if none exists.

    An isomorphism keeps each element's signature (unit, idempotent,
    self-inverse, class sizes, places in the natural order), so there is
    none unless the two monoids have the same signatures, counted with
    multiplicity.  Otherwise every homomorphism that keeps signatures, and
    so the unit, is listed in lexicographic order by `generated_maps`, and
    the first bijection among them is returned.  The budget counts the
    generator images tried: more than ``budget`` raise BudgetExceeded.
    """
    sig_a = _element_signatures(a)
    sig_b = _element_signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    with_sig: dict = {}
    for y, sig in enumerate(sig_b):
        with_sig.setdefault(sig, []).append(y)
    domains = [with_sig[sig] for sig in sig_a]
    maps = generated_maps(
        a.plan, b.table, domains, budget=budget, label="monoid isomorphism nodes"
    )
    return next((f for f in maps if len(set(f)) == a.n), None)
