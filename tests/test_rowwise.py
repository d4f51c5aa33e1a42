"""Row-wise closure and homomorphism checks against their O(n^2) definitions.

`groups._check_closed` must raise exactly when the entry scan below does,
with the same exception class, witness and message; `is_group_homomorphism`,
which checks whole rows of a generating set only, must agree with the check
of every product, and so must `monoids._check_anti_involution`, which checks
the columns of a generating set only, with the scan of every pair.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fzcover import (
    build_cover,
    chain_monoid,
    cyclic,
    dihedral,
    enumerate_group_homomorphisms,
    enumerate_monoid_homomorphisms,
    is_group_homomorphism,
    klein_four,
    symmetric,
    validate_fuzzy,
)
from fzcover.errors import AlgebraError, NotClosed
from fzcover.groups import _check_closed
from fzcover.monoids import _check_anti_involution
from tests.test_monoids import group_as_monoid, symmetric_inverse_monoid_2

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


@st.composite
def inverse_arrays(draw):
    # the true inverse, often with one entry changed or two swapped, or a random array
    monoid = draw(st.sampled_from(INVERSE_MONOIDS))
    n = monoid.n
    inverse = list(monoid.inverse)
    kind = draw(st.integers(0, 3))
    element = st.integers(0, n - 1)
    if kind == 1:
        inverse[draw(element)] = draw(element)
    elif kind == 2:
        a, b = draw(element), draw(element)
        inverse[a], inverse[b] = inverse[b], inverse[a]
    elif kind == 3:
        inverse = draw(st.lists(element, min_size=n, max_size=n))
    return monoid, inverse


@EXAMPLES
@given(inverse_arrays())
def test_anti_involution_on_generators_agrees_with_every_pair(drawn):
    monoid, inverse = drawn
    args = (monoid.names, monoid.table, inverse)
    assert outcome(_check_anti_involution, *args, monoid.generators) == outcome(
        anti_involution_by_definition, *args
    )
