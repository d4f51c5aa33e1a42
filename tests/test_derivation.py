"""The derived structure against its witness definitions, as a differential oracle.

`monoids._derive` computes the natural order, the least group congruence and
Green's H from closed forms that hold in inverse monoids, and
`green_relations` Green's R and L.  `_derive_by_definition` below computes
them from the definitions, in O(n^3): an idempotent witness e with a = b*e,
resp. x*e = y*e, and principal ideal sets.  Every field of the two derived
structures must agree, and so must R and L.
"""

from dataclasses import fields
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from fzcover import (
    as_dual_premorphism,
    build_cover,
    cover_from_premorphism,
    cyclic,
    dihedral,
    klein_four,
    symmetric,
    validate_dual_premorphism,
    validate_fuzzy,
    validate_inverse_monoid,
)
from fzcover.errors import AlgebraError
from fzcover.groups import validate_group
from fzcover.monoids import DerivedStructure, Partition, green_relations
from tests.test_monoids import _fixture_monoids

F = Fraction


def _derive_by_definition(names, table, unit, inverse):
    """The derived structure, and Green's R and L, by the definitions."""
    n = len(names)
    idem = tuple(x for x in range(n) if table[x][x] == x)

    # natural partial order: a <= b iff a = b*e for some idempotent e
    leq = tuple(
        tuple(any(table[b][e] == a for e in idem) for b in range(n))
        for a in range(n)
    )
    for a in range(n):
        if not leq[a][a]:
            raise AlgebraError(f"natural order not reflexive at {names[a]}")
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise AlgebraError(
                    f"natural order not antisymmetric on {names[a]}, {names[b]}"
                )
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise AlgebraError("natural order not transitive")

    # least group congruence: x ~ y iff x*e = y*e for some idempotent e
    rel = [
        [any(table[x][e] == table[y][e] for e in idem) for y in range(n)]
        for x in range(n)
    ]
    for x in range(n):
        for y in range(n):
            if rel[x][y] != rel[y][x]:
                raise AlgebraError("congruence witness relation not symmetric")
            for z in range(n):
                if rel[x][y] and rel[y][z] and not rel[x][z]:
                    raise AlgebraError("congruence witness relation not transitive")
    class_ids = [min(y for y in range(n) if rel[x][y]) for x in range(n)]
    sigma = Partition.from_class_of(class_ids)
    for x in range(n):
        for y in range(n):
            if not rel[x][y]:
                continue
            for z in range(n):
                if (
                    sigma.class_of[table[x][z]] != sigma.class_of[table[y][z]]
                    or sigma.class_of[table[z][x]] != sigma.class_of[table[z][y]]
                ):
                    raise AlgebraError(
                        f"relation is not a congruence at {names[x]}, {names[y]}, {names[z]}"
                    )
    reps = [cls[0] for cls in sigma.classes]
    qtable = [
        [sigma.class_of[table[a][b]] for b in reps]
        for a in reps
    ]
    qnames = [f"[{names[r]}]" for r in reps]
    try:
        quotient = validate_group(qnames, qtable)
    except AlgebraError as exc:
        raise AlgebraError(f"congruence quotient is not a group: {exc}") from exc

    maxima = []
    for cls in sigma.classes:
        greatest = [m for m in cls if all(leq[x][m] for x in cls)]
        maxima.append(greatest[0] if greatest else None)

    # Green's relations from principal ideals
    right = [frozenset(table[a][x] for x in range(n)) for a in range(n)]
    left = [frozenset(table[x][a] for x in range(n)) for a in range(n)]
    r_ids: dict[frozenset, int] = {}
    l_ids: dict[frozenset, int] = {}
    r_of = [r_ids.setdefault(right[a], len(r_ids)) for a in range(n)]
    l_of = [l_ids.setdefault(left[a], len(l_ids)) for a in range(n)]
    green_r = Partition.from_class_of(r_of)
    green_l = Partition.from_class_of(l_of)
    green_h = Partition.from_class_of(
        [r_of[a] * n + l_of[a] for a in range(n)]
    )

    f_inverse = all(m is not None for m in maxima)
    clifford = all(table[e][x] == table[x][e] for e in idem for x in range(n))

    derived = DerivedStructure(
        idempotents=idem,
        above=tuple(sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)),
        sigma=sigma,
        sigma_quotient=quotient,
        sigma_maxima=tuple(maxima),
        green_h=green_h,
        f_inverse=f_inverse,
        clifford=clifford,
    )
    return derived, (green_r, green_l)


def assert_derived_by_definition(m):
    expected, green_rl = _derive_by_definition(m.names, m.table, m.unit, m.inverse)
    for field in fields(DerivedStructure):
        assert getattr(m.derived, field.name) == getattr(expected, field.name), field.name
    assert green_relations(m) == (expected.green_h, *green_rl)


GROUPS = [cyclic(n) for n in range(1, 9)] + [klein_four(), symmetric(3), dihedral(4)]


def _subgroup(group, elements):
    reached = set(elements)
    while True:
        more = {group.table[a][b] for a in reached for b in reached} - reached
        if not more:
            return reached
        reached |= more


@st.composite
def fuzzy_subgroups(draw):
    """mu is highest on the identity, then on each subgroup <g1>, <g1, g2>, ..."""
    group = draw(st.sampled_from(GROUPS))
    gens = draw(st.lists(st.integers(0, group.n - 1), max_size=3))
    depth = {group.identity: 0}
    for i, g in enumerate(gens, 1):
        for x in _subgroup(group, set(depth) | {g}):
            depth.setdefault(x, i)
    levels = len(gens) + 2
    mu = [F(levels - depth.get(x, levels - 1), levels) for x in range(group.n)]
    return validate_fuzzy(group, mu)


def symmetric_inverse_monoid(k):
    """All partial injections of k points, composed right-to-left."""
    maps = [
        f
        for f in product([None, *range(k)], repeat=k)
        if len({v for v in f if v is not None}) == sum(v is not None for v in f)
    ]
    index = {f: i for i, f in enumerate(maps)}
    table = [
        [index[tuple(None if g[x] is None else f[g[x]] for x in range(k))] for g in maps]
        for f in maps
    ]
    return validate_inverse_monoid([str(f) for f in maps], table, index[tuple(range(k))])


def reversed_copy(m):
    """The same monoid with its element indices reversed."""
    last = m.n - 1
    table = [[last - v for v in reversed(row)] for row in reversed(m.table)]
    return validate_inverse_monoid(m.names[::-1], table, last - m.unit)


def test_fixture_monoids_derive_by_definition(fz_z2, fz_v4):
    # the symmetric inverse monoid on 3 points has 34 elements and R != L;
    # reversed, no monoid lists its least idempotent first
    monoids = _fixture_monoids(fz_z2, fz_v4) + [symmetric_inverse_monoid(3)]
    assert monoids[-1].n == 34
    for m in monoids:
        assert_derived_by_definition(m)
        assert_derived_by_definition(reversed_copy(m))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fuzzy_subgroups())
def test_covers_derive_by_definition(fz):
    cover = build_cover(fz)
    built = cover_from_premorphism(as_dual_premorphism(fz))
    # psi into the cover itself, onto the greatest pair over each element:
    # a dual premorphism into an inverse monoid that is not a chain
    maxima = tuple(cover.pair_index[(fz.mu_index(x), x)] for x in range(fz.n))
    over_cover = cover_from_premorphism(
        validate_dual_premorphism(fz.group, cover.monoid, maxima)
    )
    for m in (cover.monoid, built.monoid, over_cover.monoid):
        assert_derived_by_definition(m)
