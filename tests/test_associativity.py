"""Light's associativity test against the cubic scan, as a differential oracle.

`groups._check_associative` must raise exactly when the cubic scan below
does, with the same exception class, witness triple and message.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fzcover import build_cover, chain_monoid, cyclic, dihedral, klein_four, validate_fuzzy
from fzcover.errors import NotAssociative
from fzcover.groups import _check_associative, _generators
from tests.test_monoids import symmetric_inverse_monoid_2

F = Fraction

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


def associativity_by_definition(names, table):
    """Raise NotAssociative on the lexicographically first failing triple."""
    n = len(names)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAssociative(
                        f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})",
                        witness=(a, b, c),
                    )


def outcome(check, table):
    names = [f"x{i}" for i in range(len(table))]
    try:
        check(names, table)
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc)
    return None


def assert_same_outcome(table):
    expected = outcome(associativity_by_definition, table)
    assert outcome(_check_associative, tuple(map(tuple, table))) == expected
    return expected


def _associative_tables():
    z2 = validate_fuzzy(cyclic(2), [F(1), F(1, 2)])
    c4 = validate_fuzzy(cyclic(4), [F(1), F(1, 3), F(2, 3), F(1, 3)])
    v4 = validate_fuzzy(klein_four(), [F(1), F(1, 2), F(1, 4), F(1, 4)])
    return [
        [list(row) for row in m.table]
        for m in [cyclic(n) for n in range(1, 7)]
        + [dihedral(n) for n in (3, 4, 5)]
        + [build_cover(fz).monoid for fz in (z2, c4, v4)]
        + [chain_monoid([F(1, 4), F(1, 2), F(1)]), symmetric_inverse_monoid_2()]
    ]


ASSOCIATIVE = _associative_tables()


@st.composite
def closed_tables(draw):
    n = draw(st.integers(1, 6))
    cell = st.integers(0, n - 1)
    return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def constant_row_tables(draw):
    # x*y = c(x): associative iff c(c(x)) = c(x), which a random c often is
    n = draw(st.integers(1, 6))
    c = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return [[c[x]] * n for x in range(n)]


@st.composite
def corrupted_tables(draw):
    table = [list(row) for row in draw(st.sampled_from(ASSOCIATIVE))]
    n = len(table)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    table[a][b] = draw(st.integers(0, n - 1).filter(lambda v: v != table[a][b] or n == 1))
    return table


def test_associative_tables_pass():
    for table in ASSOCIATIVE:
        assert assert_same_outcome(table) is None


@EXAMPLES
@given(closed_tables())
def test_random_closed_tables_agree_with_cubic_scan(table):
    assert_same_outcome(table)


@EXAMPLES
@given(constant_row_tables())
def test_constant_row_tables_agree_with_cubic_scan(table):
    assert_same_outcome(table)


@EXAMPLES
@given(corrupted_tables())
def test_single_entry_corruptions_agree_with_cubic_scan(table):
    assert_same_outcome(table)


@EXAMPLES
@given(closed_tables())
def test_greedy_generators_generate(table):
    rows = [tuple(row) for row in table]
    gens = _generators(rows)

    def closure(subset):
        # closure under right multiplication by the subset: on any closed
        # table, associative or not, the picks generate the table this way
        reached = set(subset)
        while True:
            more = {rows[a][b] for a in reached for b in subset} - reached
            if not more:
                return reached
            reached |= more

    assert gens == sorted(gens, reverse=True)
    assert closure(gens) == set(range(len(rows)))
    for i, g in enumerate(gens):
        assert g not in closure(gens[:i])
        # greedy from the highest index down: every element above g is already generated
        assert set(range(g + 1, len(rows))) <= closure(gens[:i])


def test_corruption_is_named_like_the_cubic_scan():
    table = [list(row) for row in cyclic(5).table]
    table[3][4] = 0
    # (1*2)*4 = 3*4 = 0 after the corruption, but 1*(2*4) = 1*1 = 2
    assert assert_same_outcome(table) == (
        NotAssociative, (1, 2, 4), "(x1*x2)*x4 != x1*(x2*x4)"
    )
