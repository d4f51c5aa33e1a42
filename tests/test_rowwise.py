"""Row-wise closure and homomorphism checks against their O(n^2) definitions.

`groups._check_closed` must raise exactly when the entry scan below does,
with the same exception class, witness and message; `is_group_homomorphism`,
which checks whole rows of a generating set only, must agree with the check
of every product.  Every monoid that `validate_inverse_monoid` accepts must
pass the scan of every pair for the anti-involution laws, which validation
no longer checks: its inverses imply them.

Each check that now reads whole rows or generator columns is kept below in
its former form, as an oracle with the same outcome: the identity and
inverses of `validate_group`, the sigma of `_derive` from every idempotent,
with its congruence and group checks, its natural order by a comparison per
entry with bitsets parsed from binary digits, its sigma-quotient by a
lookup per entry and a closure scan, the list compare of Light's test in
`_check_associative`, the rows of `build_cover`, the round trip of
`premorphism_from_cover` and the H-class products of
`hclass_level_isomorphism`.  So are the two-sided
closure that `groups._generators` replaced with a closure under right
multiplication, the sorting that `Partition.from_class_of` no longer does,
and the scan of every y for every x that `_generalized_inverses` replaced
with propagation along the Cayley graph and keeps as its fallback.
So are the commutation loops of both morphism validators, which now compare
whole arrays, the per-entry range check of `is_group_homomorphism`, the pair
scan of `is_subgroup`, the value comparisons of `level_subset` and the
per-entry order check of `cover_report`.  So are the pair loop and the
witness scan of `validate_dual_premorphism`, which now reads one row of
the monoid table per x and finds a failing y from its product, and the
`validate_fuzzy` that converted, hashed and looked up every value and
checked each pair with one `min`.  `validate_fuzzy` still converts every
value and ranks it by one sort of the distinct values, then checks the
first axiom on ranks by clamped rank rows in `fuzzy._validate_ranks`, which
the grid enumerators call with ranks they hold; the oracle is run on grid
listings, workspace files, mixed value types and sequences that build a
new object on each access.
"""

import dataclasses
import random
import tracemalloc
from array import array
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from functools import reduce
from itertools import compress, permutations, product
from operator import and_, itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

import fzcover.cover as cover_module
import fzcover.monoids as monoids_module
import fzcover.workspace as workspace_module
from fzcover import (
    as_dual_premorphism,
    build_cover,
    chain_monoid,
    cover_from_premorphism,
    cover_report,
    cyclic,
    default_grid,
    dihedral,
    enumerate_cover_morphisms,
    enumerate_fuzzy_morphisms,
    enumerate_fuzzy_subgroups_filter,
    enumerate_group_homomorphisms,
    enumerate_monoid_homomorphisms,
    hclass_level_isomorphism,
    is_group_homomorphism,
    is_subgroup,
    klein_four,
    parse_workspace,
    premorphism_from_cover,
    symmetric,
    validate_cover_morphism,
    validate_dual_premorphism,
    validate_fuzzy,
    validate_fuzzy_morphism,
    validate_inverse_monoid,
)
from fzcover.cover import CoverMorphism, _check_maxima_preserved
from fzcover.errors import (
    AlgebraError,
    Axiom1Violation,
    Axiom2Violation,
    CommutationFailure,
    CoverageFailure,
    MissingInverse,
    NoIdentity,
    NoInverse,
    NonUniqueInverse,
    NotAssociative,
    NotClosed,
    NotGroupHom,
    NotDualPremorphism,
    NotHomomorphism,
    NotOrderPreserving,
    ReconstructionMismatch,
    TopNotPreserved,
    ValueNotInChain,
    ValueOutOfRange,
)
from fzcover.fuzzy import FuzzyMorphism, FuzzySubgroup, level_subset
from fzcover.groups import (
    FiniteGroup,
    _check_associative,
    _check_closed,
    _generators,
    validate_group,
)
from fzcover.monoids import (
    DerivedStructure,
    DualPremorphism,
    Partition,
    _derive,
    _generalized_inverses,
    _members,
    _natural_order,
    check_projection,
    green_relations,
    natural_order,
)
from tests.test_associativity import (
    ASSOCIATIVE,
    closed_tables,
    constant_row_tables,
    corrupted_tables,
)
from tests.test_cover import on_fresh_group, plant_wrong_product
from tests.test_derivation import fuzzy_subgroups, reversed_copy, symmetric_inverse_monoid
from tests.test_monoids import _fixture_monoids, group_as_monoid, symmetric_inverse_monoid_2

F = Fraction

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


def closure_by_definition(names, table):
    """Raise NotClosed on the first entry, in row-major order, that is no index."""
    n = len(names)
    if len(table) != n or any(len(row) != n for row in table):
        raise NotClosed(f"table must be {n}x{n} to match {n} element names")
    for a in range(n):
        for b in range(n):
            v = table[a][b]
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotClosed(
                    f"entry {names[a]}*{names[b]} = {v!r} is not an element index",
                    witness=(a, b),
                )


def homomorphism_by_definition(f, source, target):
    if len(f) != source.n or any(not 0 <= v < target.n for v in f):
        return False
    return all(
        f[source.table[a][b]] == target.table[f[a]][f[b]]
        for a in range(source.n)
        for b in range(source.n)
    )


def outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)
    return None


@st.composite
def entry_tables(draw):
    # mostly element indices; now and then an entry out of range or of
    # another type, bool and float among them, or a row too many or too few
    n = draw(st.integers(0, 5))
    index = st.integers(0, max(n - 1, 0))
    odd = st.one_of(
        st.integers(-2, n + 2),
        st.booleans(),
        st.sampled_from([0.0, 1.0, 2.5, float("nan"), "1", None, F(1)]),
    )
    off = st.sampled_from([0] * 8 + [-1, 1])

    def cell():
        return draw(odd) if draw(st.integers(0, 19)) == 0 else draw(index)

    height = max(n + draw(off), 0)
    return n, [[cell() for _ in range(max(n + draw(off), 0))] for _ in range(height)]


@EXAMPLES
@given(entry_tables())
def test_closure_agrees_with_entry_scan(drawn):
    n, table = drawn
    names = [f"x{i}" for i in range(n)]
    assert outcome(_check_closed, names, table) == outcome(closure_by_definition, names, table)


def test_bool_and_float_entries_are_named_like_the_scan():
    names = ["e", "a"]
    for table, expected in [
        ([[0, 1], [1, True]], None),
        ([[0, 1], [1, 1.0]], (NotClosed, (1, 1), "entry a*a = 1.0 is not an element index")),
        ([[0, 2], [1, 0.0]], (NotClosed, (0, 1), "entry e*a = 2 is not an element index")),
    ]:
        assert outcome(_check_closed, names, table) == expected
        assert outcome(closure_by_definition, names, table) == expected


def _structures():
    z2 = validate_fuzzy(cyclic(2), [F(1), F(1, 2)])
    c4 = validate_fuzzy(cyclic(4), [F(1), F(1, 3), F(2, 3), F(1, 3)])
    groups = [cyclic(n) for n in (1, 2, 3, 4, 6)] + [klein_four(), symmetric(3), dihedral(4)]
    monoids = [build_cover(fz).monoid for fz in (z2, c4)] + [
        chain_monoid([F(1, 4), F(1, 2), F(1)]),
        symmetric_inverse_monoid_2(),
    ]
    return groups, monoids


GROUPS, MONOIDS = _structures()


@st.composite
def maps(draw):
    # a homomorphism, often with one image changed, or a random map
    family = draw(st.sampled_from([GROUPS, MONOIDS]))
    source = draw(st.sampled_from(family))
    target = draw(st.sampled_from(family))
    if family is GROUPS:
        homs = enumerate_group_homomorphisms(source, target)
    else:
        homs = enumerate_monoid_homomorphisms(source, target)
    kind = draw(st.integers(0, 2))
    image = st.integers(0, target.n - 1)
    if kind == 2 or not homs:
        f = draw(st.lists(image, min_size=source.n, max_size=source.n))
    else:
        f = list(draw(st.sampled_from(homs)))
        if kind == 1:
            f[draw(st.integers(0, source.n - 1))] = draw(image)
    return tuple(f), source, target


@EXAMPLES
@given(maps())
def test_homomorphism_on_generators_agrees_with_every_product(drawn):
    f, source, target = drawn
    assert is_group_homomorphism(f, source, target) == homomorphism_by_definition(f, source, target)


def test_homomorphism_rejects_wrong_length_and_range():
    z2 = cyclic(2)
    for f in [(0,), (0, 1, 0), (0, 2), (0, -1)]:
        assert not is_group_homomorphism(f, z2, z2)
        assert not homomorphism_by_definition(f, z2, z2)


def anti_involution_by_definition(names, table, inverse):
    """Raise on the first x, in order, with x^-1^-1 != x or (xy)^-1 != y^-1 x^-1."""
    n = len(names)
    for x in range(n):
        if inverse[inverse[x]] != x:
            raise AlgebraError(f"inverse is not an involution at {names[x]}")
        for y in range(n):
            if inverse[table[x][y]] != table[inverse[y]][inverse[x]]:
                raise AlgebraError(
                    f"(xy)^-1 != y^-1 x^-1 at {names[x]}, {names[y]}"
                )


INVERSE_MONOIDS = MONOIDS + [group_as_monoid(g) for g in GROUPS]


# -- identity and inverses of validate_group, by whole rows ---------------------


def group_by_scan(names, table):
    """validate_group with the identity and each inverse found by a scan of every pair."""
    _check_closed(names, table)
    table = tuple(map(tuple, table))
    generators = _check_associative(names, table)
    n = len(names)
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    inverses = []
    for x in range(n):
        y = next(
            (y for y in range(n) if table[x][y] == identity and table[y][x] == identity),
            None,
        )
        if y is None:
            raise MissingInverse(f"element {names[x]} has no inverse", witness=x)
        inverses.append(y)
    return FiniteGroup(names, table, identity, inverses, generators)


def group_outcome(check, names, table):
    try:
        g = check(names, table)
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)
    return g.names, g.table, g.identity, g.inverses, g.generators


def _semigroup_tables():
    # associative tables: groups pass; monoids that are no groups miss an
    # inverse; bands, null semigroups and a group times a left-zero band
    # have no identity
    groups = [cyclic(n) for n in (1, 2, 3, 6)] + [klein_four(), symmetric(3), dihedral(4)]
    c3 = cyclic(3).table
    return (
        [g.table for g in groups]
        + [m.table for m in MONOIDS + [chain_monoid([F(1)])]]
        + [[[a] * n for a in range(n)] for n in (2, 3)]  # left zero: x*y = x
        + [[list(range(n))] * n for n in (2, 3)]  # right zero: x*y = y
        + [[[1] * 3] * 3, [[0, 0, 0], [0, 2, 0], [0, 0, 0]]]  # constant, nilpotent
        + [[[2 * (a // 2) + b % 2 for b in range(4)] for a in range(4)]]  # 2x2 rectangular band
        # a left-zero band of two times C3
        + [[[3 * (a // 3) + c3[a % 3][b % 3] for b in range(6)] for a in range(6)]]
    )


SEMIGROUP_TABLES = _semigroup_tables()


def _inverse_tables():
    # the semigroup tables, and larger ones: a group, a cover of 10 pairs, and
    # a left-zero band of three times C3, whose elements have three inverses each
    c3 = cyclic(3).table
    c6 = validate_fuzzy(cyclic(6), [F(1), F(1, 3), F(2, 3), F(1, 3), F(2, 3), F(1, 3)])
    return SEMIGROUP_TABLES + [
        dihedral(6).table,
        build_cover(c6).monoid.table,
        [[3 * (a // 3) + c3[a % 3][b % 3] for b in range(9)] for a in range(9)],
    ]


INVERSE_TABLES = _inverse_tables()


@st.composite
def relabeled_semigroups(draw, tables=SEMIGROUP_TABLES):
    # an associative table with its elements listed in a random order
    table = draw(st.sampled_from(tables))
    n = len(table)
    perm = draw(st.permutations(range(n)))
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabeled[perm[a]][perm[b]] = perm[table[a][b]]
    return relabeled


@EXAMPLES
@given(relabeled_semigroups())
def test_identity_and_inverses_by_rows_agree_with_scan(table):
    names = [f"x{i}" for i in range(len(table))]
    assert group_outcome(validate_group, names, table) == group_outcome(group_by_scan, names, table)


def test_semigroup_tables_reach_each_outcome():
    outcomes = set()
    for table in SEMIGROUP_TABLES:
        names = [f"x{i}" for i in range(len(table))]
        expected = group_outcome(group_by_scan, names, table)
        assert group_outcome(validate_group, names, table) == expected
        outcomes.add(expected[0] if isinstance(expected[0], type) else FiniteGroup)
    assert outcomes == {FiniteGroup, NoIdentity, MissingInverse}


# -- generalized inverses, propagated along the Cayley graph ----------------------


def inverses_by_scan(names, table):
    """_generalized_inverses as it was before propagation: every y tried for every x."""
    n = len(names)
    inverse = []
    for x in range(n):
        found = [
            y
            for y in range(n)
            if table[table[x][y]][x] == x and table[table[y][x]][y] == y
        ]
        if not found:
            raise NoInverse(f"element {names[x]} has no generalized inverse", witness=x)
        if len(found) > 1:
            raise NonUniqueInverse(
                f"element {names[x]} has generalized inverses "
                f"{names[found[0]]} and {names[found[1]]}",
                witness=(x, found[0], found[1]),
            )
        inverse.append(found[0])
    return inverse


def transformations_of_two_points():
    """T2, every map of two points, composed right-to-left, the identity first.

    Regular, as every transformation monoid is, but not inverse: its two
    constant maps are idempotents that do not commute.
    """
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    index = {m: i for i, m in enumerate(maps)}
    return [[index[tuple(f[g[x]] for x in range(2))] for g in maps] for f in maps]


# the unit, a and zero, with a*a = zero: a lies in no regular D-class
NILPOTENT_WITH_UNIT = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]


def inverses_outcome(find, table, *generators):
    names = [f"x{i}" for i in range(len(table))]
    try:
        return list(find(names, table, *generators))
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)


def assert_inverses_like_scan(table):
    table = tuple(map(tuple, table))
    generators = _check_associative([f"x{i}" for i in range(len(table))], table)
    expected = inverses_outcome(inverses_by_scan, table)
    assert inverses_outcome(_generalized_inverses, table, generators) == expected
    return expected


@EXAMPLES
@given(relabeled_semigroups(INVERSE_TABLES))
@example(INVERSE_TABLES[-1])
@example(INVERSE_TABLES[-2])
@example(SEMIGROUP_TABLES[-1])
def test_inverses_by_propagation_agree_with_scan(table):
    assert_inverses_like_scan(table)


def test_inverses_reach_each_outcome_like_scan(monkeypatch):
    tables = INVERSE_TABLES + [cover.monoid.table for cover in _grid_covers()]
    scans = []
    real = monoids_module._inverses_by_scan

    def counted(names, table):
        scans.append(len(table))
        return real(names, table)

    monkeypatch.setattr(monoids_module, "_inverses_by_scan", counted)
    failed = 0
    for table in tables:
        failed += isinstance(assert_inverses_like_scan(table), tuple)
    # a table is scanned only where the propagated inverses fail their check
    assert len(scans) == failed and failed > 0
    scans.clear()
    # a non-regular monoid and a regular one that is not inverse, as inputs
    # to the validator, each raise the scan's error with its witness
    for table, expected in (
        (NILPOTENT_WITH_UNIT, (NoInverse, 1, "element x1 has no generalized inverse")),
        (
            transformations_of_two_points(),
            (NonUniqueInverse, (2, 2, 3), "element x2 has generalized inverses x2 and x3"),
        ),
    ):
        assert assert_inverses_like_scan(table) == expected
        names = [f"x{i}" for i in range(len(table))]
        assert outcome(validate_inverse_monoid, names, table, 0) == expected
    assert len(scans) == 4
    # and so does every relabeling of the two
    for table in (NILPOTENT_WITH_UNIT, transformations_of_two_points()):
        n = len(table)
        for perm in permutations(range(n)):
            relabeled = [[0] * n for _ in range(n)]
            for a, b in product(range(n), repeat=2):
                relabeled[perm[a]][perm[b]] = perm[table[a][b]]
            assert assert_inverses_like_scan(relabeled)[0] in (NoInverse, NonUniqueInverse)


# -- the anti-involution, implied by the inverses ---------------------------------


def assert_accepted_reverse_products(names, table, unit):
    """True iff validate_inverse_monoid accepts the table, after checking that
    its inverses pass the scan of every pair for the anti-involution laws."""
    try:
        m = validate_inverse_monoid(names, table, unit)
    except AlgebraError:
        return False
    anti_involution_by_definition(m.names, m.table, m.inverse)
    return True


def test_validated_monoids_pass_the_anti_involution_scan(fz_z2, fz_v4):
    # the inverse tables with each element tried as unit, the fixture
    # monoids and the grid covers
    accepted = 0
    for table in INVERSE_TABLES:
        names = [f"x{i}" for i in range(len(table))]
        accepted += sum(assert_accepted_reverse_products(names, table, u) for u in range(len(table)))
    monoids = _fixture_monoids(fz_z2, fz_v4) + [c.monoid for c in _grid_covers()]
    for m in monoids + [reversed_copy(m) for m in monoids]:
        assert assert_accepted_reverse_products(m.names, m.table, m.unit)
    # the 14 tables with a unit, 8 groups and 6 monoids, each at its unit
    assert accepted == 14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fuzzy_subgroups())
def test_validated_covers_pass_the_anti_involution_scan(fz):
    for m in (build_cover(fz).monoid, cover_from_premorphism(as_dual_premorphism(fz)).monoid):
        assert assert_accepted_reverse_products(m.names, m.table, m.unit)


# -- _derive against the class-row derivation --------------------------------------

BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def natural_order_by_entries(cols, dom):
    """The natural order as _derive built it before it read element positions:
    one comparison per entry, a <= b iff cols[dom[a]][b] == a, and each row
    parsed into a bitset as a string of binary digits.
    """
    leq = tuple(tuple(map(a.__eq__, cols[dom[a]])) for a in range(len(cols)))
    up = [int(bytes(row[::-1]).translate(BINARY_DIGITS), 2) for row in leq]
    return leq, up


def derive_by_class_rows(names, table, inverse):
    """_derive as it was before the generator rule: sigma is checked to be a
    congruence on the whole class rows [x*z] and [z*x] of every element x.
    Its sigma, x ~ y iff x*e = y*e for some idempotent e, is built from
    every idempotent, the oracle of `_derive`'s one column at the least.
    Returns the derived structure with Green's R and L, which `_derive` no
    longer builds (see `derive_with_green`).
    """
    n = len(names)
    rows = tuple(map(tuple, table))
    cols = tuple(zip(*rows))
    idem = tuple(x for x in range(n) if rows[x][x] == x)
    dom = [rows[inverse[a]][a] for a in range(n)]  # a^-1 a
    ran = [rows[a][inverse[a]] for a in range(n)]  # a a^-1

    leq, up = natural_order_by_entries(cols, dom)
    for a in range(n):
        if not leq[a][a]:
            raise AlgebraError(f"natural order not reflexive at {names[a]}")
        for b in compress(range(n), leq[a]):
            if b == a:
                continue
            if leq[b][a]:
                raise AlgebraError(
                    f"natural order not antisymmetric on {names[a]}, {names[b]}"
                )
            if up[b] & ~up[a]:
                raise AlgebraError("natural order not transitive")

    # least group congruence: x ~ y iff x*e = y*e for some idempotent e;
    # symmetric and reflexive by construction
    rel = [0] * n
    for e in idem:
        buckets: dict[int, int] = {}
        for x, v in enumerate(cols[e]):
            buckets[v] = buckets.get(v, 0) | 1 << x
        for x, v in enumerate(cols[e]):
            rel[x] |= buckets[v]
    # transitive iff related elements have equal rows: check the members of
    # each row of an element that no earlier row contains
    seen = 0
    for x in range(n):
        if seen >> x & 1:
            continue
        if any(rel[y] != rel[x] for y in _members(rel[x])):
            raise AlgebraError("congruence witness relation not transitive")
        seen |= rel[x]
    sigma = Partition.from_class_of([(r & -r).bit_length() - 1 for r in rel])
    # an equivalence is a congruence iff each element multiplies like the
    # least member of its class; on failure, name the first failing triple
    class_of = sigma.class_of
    reps = [cls[0] for cls in sigma.classes]
    right = [tuple(map(class_of.__getitem__, row)) for row in rows]  # [x*z] over z
    left = [tuple(map(class_of.__getitem__, col)) for col in cols]  # [z*x] over z
    if any(
        right[x] != right[reps[class_of[x]]] or left[x] != left[reps[class_of[x]]]
        for x in range(n)
    ):
        for x in range(n):
            for y in _members(rel[x]):
                for z in range(n):
                    if right[x][z] != right[y][z] or left[x][z] != left[y][z]:
                        raise AlgebraError(
                            f"relation is not a congruence at {names[x]}, {names[y]}, {names[z]}"
                        )
    qtable = [
        [sigma.class_of[table[a][b]] for b in reps]
        for a in reps
    ]
    qnames = [f"[{r}]" for r in reps]
    try:
        quotient = validate_group(qnames, qtable)
    except AlgebraError as exc:
        raise AlgebraError(f"congruence quotient is not a group: {exc}") from exc

    maxima = []
    for cls in sigma.classes:
        # the members above every member of the class: its greatest, if any
        greatest = reduce(and_, (up[x] for x in cls), rel[cls[0]])
        maxima.append((greatest & -greatest).bit_length() - 1 if greatest else None)

    # Green's relations: a R b iff aa^-1 = bb^-1, a L b iff a^-1a = b^-1b
    green_r = Partition.from_class_of(ran)
    green_l = Partition.from_class_of(dom)
    green_h = Partition.from_class_of([ran[a] * n + dom[a] for a in range(n)])

    f_inverse = all(m is not None for m in maxima)
    clifford = all(rows[e] == cols[e] for e in idem)

    derived = DerivedStructure(
        idempotents=idem,
        above=tuple(up),
        sigma=sigma,
        sigma_quotient=quotient,
        sigma_maxima=tuple(maxima),
        green_h=green_h,
        f_inverse=f_inverse,
        clifford=clifford,
    )
    return derived, (green_r, green_l)


def derive_with_green(names, rows, inverse):
    """_derive, with the R and L that `green_relations` builds on the same
    table and inverses."""
    derived = _derive(rows, inverse)
    on_demand = SimpleNamespace(n=len(names), table=rows, inverse=inverse, derived=derived)
    return derived, green_relations(on_demand)[1:]


def derived_outcome(derive, *args):
    try:
        return derive(*args)
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)


def assert_derived_on_generators_like_class_rows(m):
    args = (m.names, m.table, m.inverse)
    assert derived_outcome(derive_with_green, *args) == derived_outcome(
        derive_by_class_rows, *args
    )


def assert_natural_order_like_entries(table, inverse):
    """_natural_order gives the bitsets of the comparison per entry, as a
    tuple of ints; returns the rows and bitsets of that comparison."""
    rows = tuple(map(tuple, table))
    cols = tuple(zip(*rows))
    dom = [rows[inverse[a]][a] for a in range(len(rows))]
    above = _natural_order(cols, dom)
    leq, up = natural_order_by_entries(cols, dom)
    assert above == tuple(up)
    assert type(above) is tuple and all(type(bits) is int for bits in above)
    return leq, up


def quotient_by_entries(m):
    """The sigma-quotient as _derive built it before its row lookups: one
    table lookup per entry, then validate_group with its closure scan."""
    d = m.derived
    reps = [cls[0] for cls in d.sigma.classes]
    qtable = [[d.sigma.class_of[m.table[a][b]] for b in reps] for a in reps]
    return validate_group([f"[{r}]" for r in reps], qtable)


def group_fields(g):
    return g.names, g.table, g.identity, g.inverses, g.generators


def assert_quotient_built_like_validation(m):
    """The identity, inverses and generators that `_derive` gives the
    sigma-quotient, unvalidated, are those `validate_group` finds on its
    table.  Its identity is the class of the least idempotent, found here
    as the one below every idempotent, and the inverse of each element's
    class is the class of its inverse."""
    d = m.derived
    q = d.sigma_quotient
    assert group_fields(q) == group_fields(validate_group(q.names, q.table))
    least = [z for z in d.idempotents if all(m.table[e][z] == z for e in d.idempotents)]
    assert len(least) == 1 and q.identity == d.sigma.class_of[least[0]]
    class_of = d.sigma.class_of
    assert [q.inverses[class_of[x]] for x in range(m.n)] == [class_of[y] for y in m.inverse]


def assert_like_entries(m):
    """The natural order and the sigma-quotient of a validated monoid are those
    of the per-entry forms, as bitsets and as the matrix `natural_order`
    builds, and its quotient passes validate_group alike."""
    leq, up = assert_natural_order_like_entries(m.table, m.inverse)
    assert m.derived.above == tuple(up)
    matrix = natural_order(m)
    assert matrix == leq
    assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
    assert all(type(v) is bool for row in matrix for v in row)
    q = m.derived.sigma_quotient
    assert group_fields(q) == group_fields(quotient_by_entries(m))
    assert_quotient_built_like_validation(m)


def test_fixture_monoids_derive_on_generators_like_class_rows(fz_z2, fz_v4):
    monoids = _fixture_monoids(fz_z2, fz_v4) + [symmetric_inverse_monoid(3)]
    for m in monoids + [reversed_copy(m) for m in monoids]:
        assert_derived_on_generators_like_class_rows(m)
        assert_like_entries(m)


def test_grid_covers_order_and_quotient_like_entries():
    for cover in _grid_covers():
        assert_like_entries(cover.monoid)


@pytest.fixture(scope="module")
def c200_cover():
    # the 301-pair cover of C200 under tools/large_covers.py's three-level mu
    mu = [F(1) if x == 0 else F(1, 2) if x % 2 == 0 else F(1, 4) for x in range(200)]
    m = build_cover(validate_fuzzy(cyclic(200), mu)).monoid
    assert m.n == 301
    return m


def green_by_principal_ideals(m):
    """Green's R and L by their definitions: equal principal right ideals aM,
    the sets of a row, and equal principal left ideals Ma, of a column."""
    ideal_ids: dict = {}
    r_of = [ideal_ids.setdefault(("R", frozenset(row)), len(ideal_ids)) for row in m.table]
    l_of = [ideal_ids.setdefault(("L", frozenset(col)), len(ideal_ids)) for col in zip(*m.table)]
    return Partition.from_class_of(r_of), Partition.from_class_of(l_of)


def test_a_validated_monoid_keeps_linear_order_state(c200_cover):
    m = c200_cover
    n, d = m.n, m.derived
    assert len(d.above) == n and all(type(bits) is int for bits in d.above)
    values = [getattr(d, field.name) for field in dataclasses.fields(d)]
    assert not any(
        isinstance(v, tuple) and any(isinstance(row, tuple) and len(row) == n for row in v)
        for v in values
    )
    assert_like_entries(m)  # natural_order(m) is the per-entry matrix
    # R and L are not kept: green_relations builds them, by the definitions
    assert not {"green_r", "green_l"} & {field.name for field in dataclasses.fields(d)}
    h, r, l = green_relations(m)
    assert h is d.green_h and (r, l) == green_by_principal_ideals(m)
    assert len(r.classes) == len(l.classes) == 3


def test_derive_builds_no_full_transpose(c200_cover):
    # an n x n transpose alone holds n^2 slots of 8 bytes
    m = c200_cover
    tracemalloc.start()
    try:
        _derive(m.table, m.inverse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.n**2 * 8


@st.composite
def unital_tables(draw):
    # closed unital tables with an inverse array, mostly no inverse monoids,
    # so that a^-1 a need not be idempotent: an inverse monoid, or its
    # opposite, with one product changed off the unit's row and column, or a
    # random table with unit n - 1 and a random inverse array
    if draw(st.booleans()):
        monoid = draw(st.sampled_from(INVERSE_MONOIDS))
        n, unit = monoid.n, monoid.unit
        table = [list(row) for row in monoid.table]
        if draw(st.booleans()):
            table = [list(col) for col in zip(*table)]
        others = [x for x in range(n) if x != unit]
        if others:
            a, b = draw(st.sampled_from(others)), draw(st.sampled_from(others))
            table[a][b] = draw(st.integers(0, n - 1))
        return table, unit, list(monoid.inverse)
    n = draw(st.integers(1, 5))
    element = st.integers(0, n - 1)
    table = [[draw(element) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        table[n - 1][x] = table[x][n - 1] = x
    inverse = draw(st.one_of(st.just(list(range(n))), st.lists(element, min_size=n, max_size=n)))
    return table, n - 1, inverse


@EXAMPLES
@given(unital_tables())
def test_natural_order_by_positions_on_unital_tables_like_entries(drawn):
    table, _, inverse = drawn
    assert_natural_order_like_entries(table, inverse)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fuzzy_subgroups())
def test_covers_derive_on_generators_like_class_rows(fz):
    cover = build_cover(fz)
    built = cover_from_premorphism(as_dual_premorphism(fz))
    maxima = tuple(cover.pair_index[(fz.mu_index(x), x)] for x in range(fz.n))
    over_cover = cover_from_premorphism(
        validate_dual_premorphism(fz.group, cover.monoid, maxima)
    )
    for m in (cover.monoid, built.monoid, over_cover.monoid):
        assert_derived_on_generators_like_class_rows(m)
        assert_like_entries(m)


# -- build_cover's rows, added up whole ----------------------------------------------


def cover_table_by_entries(fz):
    """The cover table and unit as build_cover made them, one dict lookup per entry."""
    group = fz.group
    pairs = [(u, x) for x in range(group.n) for u in range(fz.mu_index(x) + 1)]
    index = {p: i for i, p in enumerate(pairs)}
    table = [
        [index[(min(u, v), group.table[x][y])] for v, y in pairs]
        for u, x in pairs
    ]
    return table, index[(len(fz.chain) - 1, group.identity)]


@EXAMPLES
@given(fuzzy_subgroups())
def test_cover_rows_agree_with_entries(fz):
    table, unit = cover_table_by_entries(fz)
    monoid = build_cover(fz).monoid
    assert monoid.table == tuple(map(tuple, table))
    assert monoid.unit == unit


# -- the round trip, on generator columns ----------------------------------------------


def round_trip_by_full_table(monoid, base, projection):
    """premorphism_from_cover as it was before the generator rule: the pair
    table is always built, and every row of the cover compared with it.

    psi and the pair table come through ``fzcover.cover``'s own names, so a
    planted validator or table reaches both round trips.
    """
    projection = tuple(projection)
    check_projection(monoid, base, projection)
    derived = monoid.derived
    psi = tuple(projection[m] for m in derived.sigma_maxima)
    dp = cover_module.validate_dual_premorphism(derived.sigma_quotient, base, psi)
    pairs, index, table, unit = cover_module._pair_table(dp)
    canonical = list(map(index.get, zip(projection, derived.sigma.class_of)))
    if (
        None in canonical
        or len(pairs) != monoid.n
        or len(set(canonical)) != monoid.n
        or canonical[monoid.unit] != unit
    ):
        raise ReconstructionMismatch(
            "rebuilt pair monoid is not isomorphic to the original cover"
        )
    image = canonical.__getitem__
    for t, row in enumerate(monoid.table):
        if list(map(image, row)) != list(map(table[canonical[t]].__getitem__, canonical)):
            raise ReconstructionMismatch(
                "rebuilt pair monoid is not isomorphic to the original cover",
                witness=t,
            )
    return dp


def assert_round_trip_like_full_table(monoid, base, projection):
    args = (monoid, base, projection)
    expected = derived_outcome(round_trip_by_full_table, *args)
    assert derived_outcome(premorphism_from_cover, *args) == expected
    return expected


def _grid_covers():
    grid = default_grid(3)
    groups = [cyclic(n) for n in range(1, 9)] + [klein_four(), symmetric(3), dihedral(4)]
    return [
        build_cover(fz) for group in groups for fz in enumerate_fuzzy_subgroups_filter(group, grid)
    ]


def test_round_trip_on_generators_agrees_with_full_table():
    covers = _grid_covers()
    assert len(covers) == 151
    for cover in covers:
        dp = assert_round_trip_like_full_table(cover.monoid, cover.base, cover.projection)
        assert dp.psi == tuple(cover.source.mu_index(x) for x in range(cover.source.n))


def _small_covers(fz_z2, fz_v4):
    c4 = validate_fuzzy(cyclic(4), [F(1), F(1, 3), F(2, 3), F(1, 3)])
    s3 = symmetric(3)
    mu = [F(1) if name == "e" else F(1, 2) if len(name) == 5 else F(1, 4) for name in s3.names]
    return [build_cover(fz) for fz in (fz_z2, fz_v4, c4, validate_fuzzy(s3, mu))]


def test_round_trip_with_constant_psi_fails_like_full_table(fz_z2, fz_v4, monkeypatch):
    real = cover_module.validate_dual_premorphism
    monkeypatch.setattr(
        cover_module,
        "validate_dual_premorphism",
        lambda group, monoid, psi: real(group, monoid, (monoid.unit,) * group.n),
    )
    for cover in _small_covers(on_fresh_group(fz_z2), on_fresh_group(fz_v4)):
        expected = assert_round_trip_like_full_table(cover.monoid, cover.base, cover.projection)
        assert expected[0] is ReconstructionMismatch


def test_round_trip_with_permuted_projection_fails_like_full_table(fz_z2, fz_v4):
    rng = random.Random(7)
    for cover in _small_covers(fz_z2, fz_v4):
        n = cover.n
        perms = [list(range(n)) for _ in range(n)]
        for i, perm in enumerate(perms):  # each element swapped with the next
            perm[i], perm[(i + 1) % n] = perm[(i + 1) % n], perm[i]
        perms += [rng.sample(range(n), n) for _ in range(10)]
        for perm in perms:
            projection = [cover.projection[p] for p in perm]
            assert_round_trip_like_full_table(cover.monoid, cover.base, projection)


def test_round_trip_with_planted_product_fails_like_full_table(fz_v4, monkeypatch):
    for fz in enumerate_fuzzy_subgroups_filter(klein_four(), default_grid(3)) + [
        on_fresh_group(fz_v4)
    ]:
        cover = build_cover(fz)
        if cover.monoid.derived.sigma_quotient.n < 3:
            continue
        with monkeypatch.context() as patch:
            row = plant_wrong_product(patch, cover)
            expected = assert_round_trip_like_full_table(
                cover.monoid, cover.base, cover.projection
            )
        assert expected[:2] == (ReconstructionMismatch, row)


# -- generating sets by one right closure, partitions in one pass ------------------


def generators_by_two_sided_closure(rows):
    """_generators as it was before the right closure: each new member is
    multiplied with every earlier one on both sides, O(n^2) products.
    """
    cols = list(zip(*rows))
    members: list[int] = []
    inside: set[int] = set()
    gens = []
    done = 0
    for g in reversed(range(len(rows))):
        if g in inside:
            continue
        gens.append(g)
        members.append(g)
        inside.add(g)
        while done < len(members):
            a = members[done]
            done += 1
            earlier = members[:done]
            fresh = (
                set(map(rows[a].__getitem__, earlier))
                | set(map(cols[a].__getitem__, earlier))
            ) - inside
            members.extend(fresh)
            inside |= fresh
    return gens


def partition_by_sorting(class_ids):
    """Partition.from_class_of as it was before one pass: each bucket sorted,
    then the buckets sorted by least member.
    """
    buckets: dict[int, list[int]] = {}
    for x, c in enumerate(class_ids):
        buckets.setdefault(c, []).append(x)
    classes = tuple(tuple(sorted(b)) for b in sorted(buckets.values(), key=min))
    class_of = [0] * len(class_ids)
    for i, cls in enumerate(classes):
        for x in cls:
            class_of[x] = i
    return Partition(classes, tuple(class_of))


def assert_picks_like_two_sided_closure(table):
    rows = [tuple(row) for row in table]
    assert _generators(rows) == generators_by_two_sided_closure(rows)


def _generated_monoids(fz_z2, fz_v4):
    return _fixture_monoids(fz_z2, fz_v4) + [symmetric_inverse_monoid(3)]


def test_generators_of_groups_and_monoids_pick_like_two_sided_closure(fz_z2, fz_v4):
    groups = GROUPS + [cyclic(12), dihedral(6), symmetric(4)]
    for m in groups + _generated_monoids(fz_z2, fz_v4):
        assert_picks_like_two_sided_closure(m.table)


@EXAMPLES
@given(relabeled_semigroups())
def test_generators_of_relabeled_semigroups_pick_like_two_sided_closure(table):
    assert_picks_like_two_sided_closure(table)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fuzzy_subgroups())
def test_generators_of_covers_pick_like_two_sided_closure(fz):
    cover = build_cover(fz)
    built = cover_from_premorphism(as_dual_premorphism(fz))
    for m in (cover.monoid, built.monoid, cover.monoid.derived.sigma_quotient):
        assert_picks_like_two_sided_closure(m.table)


def test_generators_make_at_most_two_products_per_element_and_generator():
    # the 120-element cover of C64 in tests/test_cover.py: the two-sided
    # closure reads about n^2 products of it, the right closure 2 n |gens|
    levels = (F(1, 4), F(1, 2), F(3, 4), F(1))
    mu = [levels[sum(x % d == 0 for d in (2, 4, 8))] for x in range(64)]
    m = build_cover(validate_fuzzy(cyclic(64), mu)).monoid
    products = []

    class CountingRow(tuple):
        def __getitem__(self, i):
            products.append(i)
            return tuple.__getitem__(self, i)

    gens = _generators(tuple(map(CountingRow, m.table)))
    assert gens == list(m.generators) == generators_by_two_sided_closure(m.table)
    assert len(products) <= 2 * m.n * len(gens)


@EXAMPLES
@given(st.lists(st.integers(0, 6), max_size=12))
def test_partition_in_one_pass_like_sorting(class_ids):
    assert Partition.from_class_of(class_ids) == partition_by_sorting(class_ids)


def test_derived_partitions_in_one_pass_like_sorting(monkeypatch, fz_z2, fz_v4):
    # every class-id list handed to from_class_of: sigma and H by _derive,
    # R and L by green_relations
    inputs = []
    one_pass = Partition.from_class_of

    def recording(class_ids):
        inputs.append(tuple(class_ids))
        return one_pass(class_ids)

    covers = _grid_covers()
    monoids = (
        _generated_monoids(fz_z2, fz_v4)
        + [group_as_monoid(g) for g in GROUPS + [symmetric(4)]]
        + [c.monoid for c in covers]
        + [cover_from_premorphism(as_dual_premorphism(c.source)).monoid for c in covers]
    )
    monkeypatch.setattr(Partition, "from_class_of", staticmethod(recording))
    validated = [validate_inverse_monoid(m.names, m.table, m.unit) for m in monoids]
    assert len(inputs) == 2 * len(monoids)
    for m in validated:
        green_relations(m)
    assert len(inputs) == 4 * len(monoids)
    for class_ids in inputs:
        assert one_pass(class_ids) == partition_by_sorting(class_ids)


# -- Light's test, one pair of rows at a time ----------------------------------------


def associative_by_row_lists(names, table):
    """_check_associative as it was before its lazy compare: for each generator,
    a list of every row of x*g and a list of every row of x read at the row
    of g, compared whole."""
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n < 2:
        return list(range(n))
    gens = _generators(rows)
    if all(
        list(map(itemgetter(*rows[g]), rows))
        == list(map(rows.__getitem__, map(itemgetter(g), rows)))
        for g in gens
    ):
        return gens
    for a in range(n):
        for b in range(n):
            left = rows[rows[a][b]]
            right = itemgetter(*rows[b])(rows[a])
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise NotAssociative(
                    f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})",
                    witness=(a, b, c),
                )
    return gens


def assert_light_like_row_lists(table):
    names = [f"x{i}" for i in range(len(table))]
    expected = derived_outcome(associative_by_row_lists, names, table)
    assert derived_outcome(_check_associative, names, tuple(map(tuple, table))) == expected
    return expected


def test_light_by_row_pairs_on_associative_corpora_like_row_lists():
    covers = [cover.monoid.table for cover in _grid_covers()[::10]]
    for table in ASSOCIATIVE + SEMIGROUP_TABLES + INVERSE_TABLES + covers:
        assert isinstance(assert_light_like_row_lists(table), list)


@EXAMPLES
@given(st.one_of(closed_tables(), constant_row_tables(), corrupted_tables()))
def test_light_by_row_pairs_on_drawn_tables_like_row_lists(table):
    assert_light_like_row_lists(table)


def test_light_by_row_pairs_on_planted_products_like_row_lists():
    # one product changed in the first, a middle and the last row of a
    # group and of a cover, so the first pair of rows that differs lies
    # early, midway or last
    c6 = validate_fuzzy(cyclic(6), [F(1), F(1, 3), F(2, 3), F(1, 3), F(2, 3), F(1, 3)])
    failures = 0
    for base in (dihedral(5).table, build_cover(c6).monoid.table):
        n = len(base)
        for a in (0, n // 2, n - 1):
            for b in (0, n // 3, n - 1):
                table = [list(row) for row in base]
                table[a][b] = (table[a][b] + 1) % n
                failures += assert_light_like_row_lists(table)[0] is NotAssociative
    assert failures == 18


# -- H-class products, by whole rows ------------------------------------------------


def hclass_by_pairs(cover, u):
    """hclass_level_isomorphism as it was before whole rows: each product of
    the H-class, one pair at a time, with two dict lookups.
    """
    fz = cover.source
    uidx = fz.chain_index(F(u))
    e_pair = cover.pair_index[(uidx, fz.group.identity)]
    h_part = cover.monoid.derived.green_h
    hclass = h_part.classes[h_part.class_of[e_pair]]
    expected = tuple(
        cover.pair_index[(uidx, h)] for h in range(fz.group.n) if fz.mu_index(h) >= uidx
    )
    if tuple(sorted(hclass)) != tuple(sorted(expected)):
        raise AlgebraError(f"H-class at value {u} differs from its closed form")
    mapping = {i: cover.pairs[i][1] for i in sorted(hclass)}
    level = level_subset(fz, F(u))
    if set(mapping.values()) != set(level) or len(set(mapping.values())) != len(mapping):
        raise AlgebraError(f"H-class at value {u} is not in bijection with the level subset")
    for i in hclass:
        for j in hclass:
            prod = cover.monoid.table[i][j]
            if prod not in mapping or mapping[prod] != fz.group.table[mapping[i]][mapping[j]]:
                raise AlgebraError(f"H-class at value {u} projection is not a homomorphism")
    return mapping


def assert_hclass_like_pairs(cover):
    outcomes = []
    for u in cover.source.chain:
        expected = derived_outcome(hclass_by_pairs, cover, u)
        assert derived_outcome(hclass_level_isomorphism, cover, u) == expected
        outcomes.append(expected)
    return outcomes


def test_hclass_rows_agree_with_pairs_on_grid_covers():
    for cover in _grid_covers():
        assert all(isinstance(o, dict) for o in assert_hclass_like_pairs(cover))


def test_hclass_with_a_changed_product_fails_like_pairs(fz_v4):
    # one product inside the H-class of the lowest level is moved, to another
    # member of the class or out of it; the other levels stay isomorphisms
    cover = build_cover(fz_v4)
    low = cover.source.chain[0]
    members = sorted(hclass_level_isomorphism(cover, low))
    j, k = members[1], members[2]
    for wrong in (k, cover.monoid.unit):
        table = [list(row) for row in cover.monoid.table]
        table[j][k] = wrong
        changed = SimpleNamespace(
            source=cover.source,
            pairs=cover.pairs,
            pair_index=cover.pair_index,
            monoid=SimpleNamespace(derived=cover.monoid.derived, table=table),
        )
        outcomes = assert_hclass_like_pairs(changed)
        assert outcomes[0] == (
            AlgebraError, None, f"H-class at value {low} projection is not a homomorphism"
        )
        assert all(isinstance(o, dict) for o in outcomes[1:])


# -- morphism validators, subgroups and the cover's order, by whole arrays ----------


def cover_morphism_by_loop(source, target, fstar, lam):
    """validate_cover_morphism as it was before whole arrays: commutation
    checked one element at a time.
    """
    fstar = tuple(fstar)
    lam = tuple(lam)
    if not homomorphism_by_definition(fstar, source.monoid, target.monoid) or (
        fstar[source.monoid.unit] != target.monoid.unit
    ):
        raise NotHomomorphism("fstar is not a monoid homomorphism")
    if not homomorphism_by_definition(lam, source.base, target.base) or (
        lam[source.base.unit] != target.base.unit
    ):
        raise NotHomomorphism("lam is not a monoid homomorphism")
    _check_maxima_preserved(fstar, source.monoid, target.monoid, "fstar")
    _check_maxima_preserved(lam, source.base, target.base, "lam")
    for t in range(source.monoid.n):
        if target.projection[fstar[t]] != lam[source.projection[t]]:
            raise CommutationFailure(
                f"projection(fstar({source.monoid.names[t]})) != "
                f"lam(projection({source.monoid.names[t]}))",
                witness=t,
            )
    return CoverMorphism(source, target, fstar, lam)


def fuzzy_morphism_by_loop(source, target, f, lam):
    """validate_fuzzy_morphism as it was before whole arrays: the range of f
    checked one entry at a time, and commutation one element at a time.
    """
    f = tuple(f)
    lam = tuple(lam)
    if not homomorphism_by_definition(f, source.group, target.group):
        raise NotGroupHom("f is not a group homomorphism")
    k1, k2 = len(source.chain), len(target.chain)
    if len(lam) != k1 or any(not 0 <= v < k2 for v in lam):
        raise NotOrderPreserving("lam must assign a target chain value to each source value")
    for i in range(k1 - 1):
        if lam[i] > lam[i + 1]:
            raise NotOrderPreserving(
                f"lam reverses {source.chain[i]} < {source.chain[i + 1]}", witness=(i, i + 1)
            )
    if lam[k1 - 1] != k2 - 1:
        raise TopNotPreserved(
            f"lam sends top {source.top} to {target.chain[lam[k1 - 1]]}, not {target.top}"
        )
    for x in range(source.n):
        if target.mu_index(f[x]) != lam[source.mu_index(x)]:
            raise CommutationFailure(
                f"mu(f({source.group.names[x]})) != lam(mu({source.group.names[x]}))",
                witness=x,
            )
    return FuzzyMorphism(source, target, f, lam)


def _morphism_pairs():
    # object pairs whose hom-sets hold several morphisms, so that the arrays
    # of two of them can be mixed
    c4 = cyclic(4)
    objects = [
        validate_fuzzy(cyclic(2), [F(1), F(1, 2)]),
        validate_fuzzy(cyclic(2), [F(1), F(1)]),
        validate_fuzzy(c4, [F(1), F(1, 3), F(2, 3), F(1, 3)]),
        validate_fuzzy(c4, [F(1), F(1, 2), F(1), F(1, 2)]),
        validate_fuzzy(klein_four(), [F(1), F(1, 2), F(1, 4), F(1, 4)]),
    ]
    covers = {fz: build_cover(fz).triple for fz in objects}
    return [
        (a, b, covers[a], covers[b], enumerate_fuzzy_morphisms(a, b),
         enumerate_cover_morphisms(covers[a], covers[b]))
        for a in objects
        for b in objects
    ]


MORPHISM_PAIRS = _morphism_pairs()


@st.composite
def mixed_arrays(draw, side):
    # the map array of one listed morphism and the lam of another, often with
    # one entry moved, or arrays drawn at random
    a, b, ca, cb, fuzzy, cover = draw(st.sampled_from(MORPHISM_PAIRS))
    if side == "fuzzy":
        listed = [(m.f, m.lam) for m in fuzzy]
        objects, size, images = (a, b), a.n, b.n
    else:
        listed = [(c.fstar, c.lam) for c in cover]
        objects, size, images = (ca, cb), ca.monoid.n, cb.monoid.n
    steps = len(a.chain)
    kind = draw(st.integers(0, 3))
    if kind == 3:
        f = draw(st.lists(st.integers(-1, images), min_size=size, max_size=size))
        lam = draw(st.lists(st.integers(0, len(b.chain) - 1), min_size=steps, max_size=steps))
        return (*objects, f, lam)
    f = list(draw(st.sampled_from(listed))[0])
    lam = list(draw(st.sampled_from(listed))[1])
    if kind == 1:
        f[draw(st.integers(0, size - 1))] = draw(st.integers(0, images - 1))
    elif kind == 2:
        lam[draw(st.integers(0, steps - 1))] = draw(st.integers(0, len(b.chain) - 1))
    return (*objects, f, lam)


@EXAMPLES
@given(mixed_arrays("cover"))
def test_cover_morphism_by_arrays_fails_like_the_loop(drawn):
    assert outcome(validate_cover_morphism, *drawn) == outcome(cover_morphism_by_loop, *drawn)


@EXAMPLES
@given(mixed_arrays("fuzzy"))
def test_fuzzy_morphism_by_arrays_fails_like_the_loop(drawn):
    assert outcome(validate_fuzzy_morphism, *drawn) == outcome(fuzzy_morphism_by_loop, *drawn)


def test_mixed_arrays_reach_each_commutation_failure():
    # a listed map with another listed lam commutes in no hom-set here but fails
    a, b, ca, cb, fuzzy, cover = MORPHISM_PAIRS[2 * 5 + 3]  # C4 at 1/3, 2/3 -> C4 at 1/2
    f, lam = fuzzy[0].f, fuzzy[-1].lam
    assert lam != fuzzy[0].lam
    for validate, oracle, args in (
        (validate_fuzzy_morphism, fuzzy_morphism_by_loop, (a, b, f, lam)),
        (validate_cover_morphism, cover_morphism_by_loop, (ca, cb, cover[0].fstar, cover[-1].lam)),
    ):
        failed = outcome(validate, *args)
        assert failed == outcome(oracle, *args)
        assert failed[0] is CommutationFailure


@EXAMPLES
@given(maps(), st.integers(0, 30), st.sampled_from([-3, -1, 1, 2, 7]))
def test_homomorphism_range_by_min_and_max_agrees_with_every_entry(drawn, at, shift):
    # an image moved out of range, below 0 or at or above target.n
    f, source, target = drawn
    moved = list(f)
    i = at % len(moved)
    moved[i] = -1 - moved[i] if shift < 0 else target.n + moved[i] + shift - 1
    for g in (f, tuple(moved)):
        assert is_group_homomorphism(g, source, target) == homomorphism_by_definition(
            g, source, target
        )


def subgroup_by_pairs(group, subset):
    """is_subgroup as it was before whole rows: every product of two members."""
    s = frozenset(subset)
    if group.identity not in s:
        return False
    return all(group.table[a][b] in s for a in s for b in s) and all(
        group.inverses[a] in s for a in s
    )


@EXAMPLES
@given(st.sampled_from(GROUPS).flatmap(
    lambda g: st.tuples(st.just(g), st.sets(st.integers(0, g.n - 1)))
))
def test_subgroup_by_rows_agrees_with_pairs(drawn):
    group, subset = drawn
    assert is_subgroup(group, subset) == subgroup_by_pairs(group, subset)


def test_subgroup_by_rows_on_every_subset_of_small_groups():
    found = 0
    for group in GROUPS[:6]:
        for bits in range(2 ** group.n):
            subset = [x for x in range(group.n) if bits >> x & 1]
            expected = subgroup_by_pairs(group, subset)
            assert is_subgroup(group, subset) == expected
            found += expected
    # subgroups of C1, C2, C3, C4, C6 and V4
    assert found == 1 + 2 + 2 + 3 + 4 + 5


def level_by_values(fz, u):
    """level_subset as it was before ranks: mu(x) >= u compared as values."""
    u = F(u)
    if u not in fz.chain:
        raise ValueNotInChain(f"value {u} is not taken by mu", witness=u)
    subset = frozenset(x for x in range(fz.n) if fz.mu[x] >= u)
    if not subgroup_by_pairs(fz.group, subset):
        raise AlgebraError(f"level subset at {u} is not a subgroup")
    return subset


def test_levels_by_ranks_agree_with_values():
    for cover in _grid_covers():
        fz = cover.source
        for u in (*fz.chain, F(1, 7), 0):
            assert derived_outcome(level_subset, fz, u) == derived_outcome(level_by_values, fz, u)


def order_match_by_entries(cover, above):
    """cover_report's order check as it was before whole rows: every entry,
    here bit j of ``above[i]``."""
    return all(
        (above[i] >> j & 1 == 1) == (pi[1] == pj[1] and pi[0] <= pj[0])
        for i, pi in enumerate(cover.pairs)
        for j, pj in enumerate(cover.pairs)
    )


def report_with_order(cover, above):
    """cover_report of the cover with its natural order replaced by ``above``.

    The changed monoid gets an empty ``facts`` dict of its own, so the
    report is computed on ``above``, not read back from the cover's.
    """
    derived = dataclasses.replace(cover.monoid.derived, above=above)
    changed = SimpleNamespace(
        source=cover.source,
        pairs=cover.pairs,
        pair_index=cover.pair_index,
        n=cover.n,
        monoid=SimpleNamespace(derived=derived, unit=cover.monoid.unit, facts={}),
    )
    return cover_report(changed)


def test_order_by_rows_agrees_with_entries():
    covers = _grid_covers()
    for cover in covers:
        above = cover.monoid.derived.above
        assert cover_report(cover).order_match is order_match_by_entries(cover, above) is True
    # one bit of the order flipped, in every position of a few covers
    for cover in covers[::30]:
        above = cover.monoid.derived.above
        for i in range(cover.n):
            for j in range(cover.n):
                flipped = above[:i] + (above[i] ^ 1 << j,) + above[i + 1:]
                report = report_with_order(cover, flipped)
                assert report.order_match is order_match_by_entries(cover, flipped) is False
                assert report.unit_match and report.sigma_match and report.maxima_match


# -- dual premorphisms on whole arrays and natural-order rows -----------------------

def dual_premorphism_by_loop(group, monoid, psi):
    """validate_dual_premorphism as it was: every pair, each witness by a scan."""
    if len(psi) != group.n or any(not 0 <= v < monoid.n for v in psi):
        raise NotDualPremorphism("psi must assign a monoid element to every group element")
    above = monoid.derived.above
    for x in range(group.n):
        if psi[group.inverses[x]] != monoid.inverse[psi[x]]:
            raise NotDualPremorphism(
                f"psi({group.names[x]}^-1) != psi({group.names[x]})^-1", witness=x
            )
        for y in range(group.n):
            prod = monoid.table[psi[x]][psi[y]]
            if not above[prod] >> psi[group.table[x][y]] & 1:
                raise NotDualPremorphism(
                    f"psi({group.names[x]}*{group.names[y]}) is not above "
                    f"psi({group.names[x]})*psi({group.names[y]})",
                    witness=(x, y),
                )
    witnesses = []
    for u in range(monoid.n):
        h = next((h for h in range(group.n) if above[u] >> psi[h] & 1), None)
        if h is None:
            raise CoverageFailure(
                f"monoid element {monoid.names[u]} is below no psi image", witness=u
            )
        witnesses.append(h)
    return DualPremorphism(group, monoid, tuple(psi), tuple(witnesses))


def _premorphism_targets():
    # each grid-3 subgroup with its own chain, and a few with the monoid of
    # a cover or a non-Clifford inverse monoid as the target instead
    covers = _grid_covers()
    targets = [(cover.source.group, cover.base, cover.source._rank) for cover in covers]
    others = [cover.monoid for cover in covers[:4]] + [symmetric_inverse_monoid_2()]
    for monoid in others:
        for cover in covers[:12]:
            targets.append((cover.source.group, monoid, (monoid.unit,) * cover.source.n))
    return targets


PREMORPHISM_TARGETS = _premorphism_targets()


def test_dual_premorphisms_of_grid_subgroups_agree_with_the_loop():
    for group, monoid, psi in PREMORPHISM_TARGETS:
        assert derived_outcome(validate_dual_premorphism, group, monoid, psi) == (
            derived_outcome(dual_premorphism_by_loop, group, monoid, psi)
        )


@st.composite
def premorphism_arrays(draw):
    # a listed psi with one entry moved, or a psi drawn at random
    group, monoid, psi = draw(st.sampled_from(PREMORPHISM_TARGETS))
    psi = list(psi)
    if draw(st.booleans()):
        psi[draw(st.integers(0, group.n - 1))] = draw(st.integers(0, monoid.n - 1))
    else:
        psi = draw(st.lists(st.integers(0, monoid.n - 1), min_size=group.n, max_size=group.n))
    if draw(st.integers(0, 9)) == 0:
        psi[-1] = monoid.n  # out of range
    return group, monoid, psi


@EXAMPLES
@given(premorphism_arrays())
def test_dual_premorphism_by_rows_fails_like_the_loop(drawn):
    assert derived_outcome(validate_dual_premorphism, *drawn) == derived_outcome(
        dual_premorphism_by_loop, *drawn
    )


def test_premorphism_arrays_reach_each_outcome():
    c4 = validate_fuzzy(cyclic(4), [F(1), F(1, 3), F(2, 3), F(1, 3)])
    base = c4.base
    cases = {
        "ok": c4._rank,  # (2, 0, 1, 0)
        "inverse": (2, 1, 1, 0),  # psi(g1^-1) = psi(g3) differs from psi(g1)
        "product": (2, 1, 0, 1),  # psi(g1 g1) = 0 is below psi(g1) psi(g1) = 1
        "coverage": (1, 1, 1, 1),  # nothing is above the top
    }
    seen = {}
    for kind, psi in cases.items():
        got = derived_outcome(validate_dual_premorphism, c4.group, base, psi)
        assert got == derived_outcome(dual_premorphism_by_loop, c4.group, base, psi)
        seen[kind] = got if kind == "ok" else got[:2]
    assert seen["ok"].coverage_witness == (0, 0, 0)
    assert seen["inverse"] == (NotDualPremorphism, 1)
    assert seen["product"] == (NotDualPremorphism, (1, 1))
    assert seen["coverage"] == (CoverageFailure, 2)


# -- validate_fuzzy on distinct value objects ---------------------------------------

def validate_fuzzy_by_hashing(group, mu):
    """validate_fuzzy as it was: every value converted, hashed and looked up."""
    n = group.n
    if len(mu) != n:
        raise ValueOutOfRange(f"mu must assign a value to each of {n} elements")
    values = [Fraction(v) for v in mu]
    chain = tuple(sorted(set(values)))
    if not 0 <= chain[0] <= chain[-1] <= 1:
        x = next(x for x, v in enumerate(values) if not 0 <= v <= 1)
        raise ValueOutOfRange(
            f"mu({group.names[x]}) = {values[x]} outside [0, 1]", witness=x
        )
    position = {v: r for r, v in enumerate(chain)}
    ranks = [position[v] for v in values]
    table = group.table
    invs = group.inverses
    for x in range(n):
        rx = ranks[x]
        if ranks[invs[x]] != rx:
            raise Axiom2Violation(
                f"mu({group.names[x]}^-1) = {values[invs[x]]} "
                f"!= mu({group.names[x]}) = {values[x]}",
                witness=x,
            )
        row = table[x]
        for y in range(n):
            if ranks[row[y]] < min(rx, ranks[y]):
                raise Axiom1Violation(
                    f"mu({group.names[x]}*{group.names[y]}) = "
                    f"{values[row[y]]} < min bound {min(values[x], values[y])}",
                    witness=(x, y),
                )
    fz = FuzzySubgroup(group, values, chain, ranks)
    if fz.mu[group.identity] != fz.top:
        raise AlgebraError(f"mu(identity) = {fz.mu[group.identity]} is not the top {fz.top}")
    return fz


def fuzzy_outcome(validate, group, mu):
    """Chain, ranks, values and value types of the result, or the error."""
    try:
        fz = validate(group, mu)
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)
    return fz.chain, fz._rank, fz.mu, tuple(map(type, fz.mu))


def assert_fuzzy_like_hashing(group, mu):
    expected = fuzzy_outcome(validate_fuzzy_by_hashing, group, mu)
    assert fuzzy_outcome(validate_fuzzy, group, mu) == expected
    return expected


FUZZY_GROUPS = [cyclic(n) for n in range(1, 9)] + [klein_four(), symmetric(3), dihedral(4)]


def test_validate_fuzzy_on_grid_subgroups_like_hashing():
    found = 0
    for group in FUZZY_GROUPS:
        for fz in enumerate_fuzzy_subgroups_filter(group, default_grid(3)):
            assert_fuzzy_like_hashing(group, fz.mu)
            # the same values as separate objects, one per element
            assert_fuzzy_like_hashing(group, [F(v.numerator, v.denominator) for v in fz.mu])
            found += 1
    assert found == 151


def test_validate_fuzzy_on_workspace_files_like_hashing(monkeypatch):
    calls = []

    def recording(group, mu):
        calls.append((group, list(mu)))
        return validate_fuzzy(group, mu)

    monkeypatch.setattr(workspace_module, "validate_fuzzy", recording)
    files = sorted((Path(__file__).resolve().parent.parent / "workspaces").glob("*.fzw"))
    assert len(files) == 7
    for path in files:
        try:
            parse_workspace(path.read_text(encoding="utf-8"))
        except AlgebraError:
            pass
    outcomes = [assert_fuzzy_like_hashing(group, mu) for group, mu in calls]
    assert len(outcomes) == 6
    assert [o[0] for o in outcomes if isinstance(o[0], type)] == [Axiom1Violation]


HALF = F(1, 2)
# equal values in different objects and of different types
VALUE_OBJECTS = [HALF, F(2, 4), "1/2", 0.5, F(1), 1, "1", True, F(1, 4), "1/4", 0, F(0),
                 F(3, 2), -1, "5/4"]


@EXAMPLES
@given(st.sampled_from(FUZZY_GROUPS).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(
        st.sampled_from(VALUE_OBJECTS), min_size=g.n, max_size=g.n))))
def test_validate_fuzzy_on_mixed_value_objects_like_hashing(drawn):
    assert_fuzzy_like_hashing(*drawn)


def test_mixed_value_objects_merge_and_fail_like_hashing():
    v4, c4 = klein_four(), cyclic(4)
    second_half = F(2, 4)
    assert second_half is not HALF
    chain, ranks, mu, types = assert_fuzzy_like_hashing(v4, [1, HALF, second_half, "1/2"])
    assert (chain, ranks, mu, types) == ((HALF, F(1)), (1, 0, 0, 0), (1, HALF, HALF, HALF),
                                         (Fraction,) * 4)
    failed = assert_fuzzy_like_hashing(c4, ["1", HALF, "1/4", second_half])
    assert failed == (Axiom1Violation, (1, 1), "mu(g*g) = 1/4 < min bound 1/2")
    failed = assert_fuzzy_like_hashing(c4, [1, HALF, 1, "1/4"])
    assert failed[:2] == (Axiom2Violation, 1)
    failed = assert_fuzzy_like_hashing(c4, [1, HALF, "3/2", HALF])
    assert failed == (ValueOutOfRange, 2, "mu(g2) = 3/2 outside [0, 1]")
    failed = assert_fuzzy_like_hashing(c4, [HALF, HALF, 1, HALF])
    assert failed[0] in (Axiom1Violation, AlgebraError)
    assert assert_fuzzy_like_hashing(c4, [1, 1])[0] is ValueOutOfRange


class FreshValues(Sequence):
    """A sequence that builds a new value object on each access."""

    def __init__(self, values):
        self._values = [(v.numerator, v.denominator) for v in values]

    def __len__(self):
        return len(self._values)

    def __getitem__(self, x):
        return F(*self._values[x])


def test_sequences_of_fresh_objects_validate_like_hashing():
    # each access builds a new object, so equal values arrive as distinct
    # objects that must merge in one chain
    found = 0
    for group in FUZZY_GROUPS:
        for fz in enumerate_fuzzy_subgroups_filter(group, default_grid(3)):
            assert assert_fuzzy_like_hashing(group, FreshValues(fz.mu))[2] == fz.mu
            floats = array("d", map(float, fz.mu))
            assert assert_fuzzy_like_hashing(group, floats)[2] == tuple(map(F, floats))
            found += 1
    assert found == 151
    c4 = cyclic(4)
    failed = assert_fuzzy_like_hashing(c4, array("d", [1.0, 0.5, 0.25, 0.5]))
    assert failed == (Axiom1Violation, (1, 1), "mu(g*g) = 1/4 < min bound 1/2")
    failed = assert_fuzzy_like_hashing(c4, FreshValues([F(1), F(1, 2), F(3, 2), F(1, 2)]))
    assert failed == (ValueOutOfRange, 2, "mu(g2) = 3/2 outside [0, 1]")


# -- the first axiom by clamped rank rows ----------------------------------------------

def test_first_axiom_by_rows_fails_like_the_pair_loop():
    # every assignment of a small grid to small groups: the row check and
    # the pair loop give the same subgroups and the same first failure
    seen = {}
    for group, k in ((cyclic(4), 3), (klein_four(), 3), (cyclic(6), 2), (symmetric(3), 2),
                     (dihedral(4), 2)):
        for mu in product([F(i, k) for i in range(1, k + 1)], repeat=group.n):
            got = assert_fuzzy_like_hashing(group, mu)[0]
            kind = got if isinstance(got, type) else "ok"
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"ok", Axiom1Violation, Axiom2Violation}
    assert sum(seen.values()) == 2 * 3**4 + 2**6 + 2**6 + 2**8
