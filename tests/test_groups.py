from itertools import product
from math import gcd

import pytest

from fzcover import (
    cyclic,
    dihedral,
    enumerate_group_homomorphisms,
    is_group_homomorphism,
    is_subgroup,
    klein_four,
    symmetric,
    validate_group,
)
from fzcover.errors import (
    BudgetExceeded,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
)


def oracle_group_axioms(table):
    """Independent brute-force check of closure, associativity, identity, inverses."""
    n = len(table)
    if any(not 0 <= v < n for row in table for v in row):
        return False
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return False
    identities = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if len(identities) != 1:
        return False
    e = identities[0]
    return all(
        any(table[x][y] == e and table[y][x] == e for y in range(n)) for x in range(n)
    )


def test_z2_table():
    g = validate_group(["e", "a"], [[0, 1], [1, 0]])
    assert g.n == 2
    assert g.identity == 0
    assert g.inverses == (0, 1)


def test_missing_inverse():
    # a*x = a for every x, so a can never reach the identity
    with pytest.raises(MissingInverse) as exc:
        validate_group(["e", "a"], [[0, 1], [1, 1]])
    assert exc.value.witness == 1


def test_cyclic_order_must_be_positive():
    with pytest.raises(ValueError, match="order must be >= 1"):
        cyclic(0)


def test_symmetric_needs_a_count_of_points():
    # S0 permutes no points and is the trivial group; a negative count is no group
    assert symmetric(0).n == 1 and symmetric(0) == symmetric(1)
    with pytest.raises(ValueError, match="n >= 0 points"):
        symmetric(-1)


def test_klein_four_by_oracle():
    g = klein_four()
    assert oracle_group_axioms([list(r) for r in g.table])
    assert g.n == 4
    assert g.inverses == (0, 1, 2, 3)


def test_builtin_families_pass_oracle():
    for g in (cyclic(1), cyclic(3), cyclic(6), symmetric(3), dihedral(4)):
        assert oracle_group_axioms([list(r) for r in g.table])
    assert symmetric(3).n == 6
    assert dihedral(4).n == 8


def test_not_closed_and_not_associative():
    with pytest.raises(NotClosed):
        validate_group(["e", "a"], [[0, 2], [1, 0]])
    # unital but a*(a*b) != (a*a)*b
    with pytest.raises((NotAssociative, NoIdentity)):
        validate_group(
            ["e", "a", "b"],
            [[0, 1, 2], [1, 0, 0], [2, 2, 1]],
        )


def test_revalidation_is_stable():
    g = klein_four()
    again = validate_group(list(g.names), [list(r) for r in g.table])
    assert again == g
    assert again.identity == g.identity and again.inverses == g.inverses


def test_is_subgroup():
    z2 = cyclic(2)
    assert is_subgroup(z2, {0})
    assert not is_subgroup(z2, {1})
    v4 = klein_four()
    assert is_subgroup(v4, {0, 1})
    assert not is_subgroup(v4, {0, 1, 2})
    assert is_subgroup(v4, range(4))


def test_is_group_homomorphism():
    z2 = cyclic(2)
    assert is_group_homomorphism((0, 1), z2, z2)
    assert is_group_homomorphism((0, 0), z2, z2)
    assert not is_group_homomorphism((1, 0), z2, z2)
    assert not is_group_homomorphism((1, 1), z2, z2)


def brute_force_homs(g, h):
    return [
        f
        for f in product(range(h.n), repeat=g.n)
        if all(f[g.table[a][b]] == h.table[f[a]][f[b]] for a in range(g.n) for b in range(g.n))
    ]


def test_enumerate_homomorphisms_against_oracle():
    z2, z3 = cyclic(2), cyclic(3)
    assert enumerate_group_homomorphisms(z2, z2) == brute_force_homs(z2, z2)
    assert len(enumerate_group_homomorphisms(z2, z2)) == 2
    assert enumerate_group_homomorphisms(z3, z2) == [(0, 0, 0)]
    assert enumerate_group_homomorphisms(z2, cyclic(1)) == [(0, 0)]
    v4 = klein_four()
    assert enumerate_group_homomorphisms(v4, v4) == brute_force_homs(v4, v4)
    z4 = cyclic(4)
    assert enumerate_group_homomorphisms(z4, v4) == brute_force_homs(z4, v4)
    assert enumerate_group_homomorphisms(v4, z4) == brute_force_homs(v4, z4)


def test_cyclic_hom_counts_are_gcds():
    # |Hom(Cm, Cn)| = gcd(m, n): a generator may go to any element whose order divides m
    groups = {n: cyclic(n) for n in range(1, 13)}
    for m, cm in groups.items():
        for n, cn in groups.items():
            assert len(enumerate_group_homomorphisms(cm, cn)) == gcd(m, n), (m, n)


def test_enumeration_contains_identity_and_is_budgeted():
    for g in (cyclic(2), cyclic(3), klein_four()):
        homs = enumerate_group_homomorphisms(g, g)
        assert tuple(range(g.n)) in homs
    with pytest.raises(BudgetExceeded):
        enumerate_group_homomorphisms(klein_four(), klein_four(), budget=10)


def test_budget_message_counts_nodes():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_group_homomorphisms(cyclic(2), cyclic(2), budget=1)
    assert str(exc.value) == "2 group homomorphism nodes exceed budget 1"


def test_homomorphisms_compose():
    z2, v4 = cyclic(2), klein_four()
    for f in enumerate_group_homomorphisms(z2, v4):
        for g in enumerate_group_homomorphisms(v4, z2):
            composite = tuple(g[f[x]] for x in range(z2.n))
            assert is_group_homomorphism(composite, z2, z2)


def dihedral_by_permutations(n):
    """Oracle: D_n as the symmetries i -> i+k and i -> k-i of n >= 3 vertices."""
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [tuple((k - i) % n for i in range(n)) for k in range(n)]
    elems = rotations + reflections
    index = {p: i for i, p in enumerate(elems)}
    names = ["e"] + [f"r{k}" for k in range(1, n)] + [f"s{k}" for k in range(n)]
    table = [
        [index[tuple(s[t[i]] for i in range(n))] for t in elems]
        for s in elems
    ]
    return validate_group(names, table)


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_matches_permutation_construction(n):
    g = dihedral(n)
    oracle = dihedral_by_permutations(n)
    assert g.names == oracle.names and g.table == oracle.table
    assert g.identity == oracle.identity and g.inverses == oracle.inverses


def test_small_dihedral_groups():
    d1 = dihedral(1)
    assert d1.names == ("e", "s0") and d1.table == cyclic(2).table
    d2 = dihedral(2)
    assert d2.names == ("e", "r1", "s0", "s1") and d2.table == klein_four().table
    for g in (d1, d2):
        assert oracle_group_axioms([list(r) for r in g.table])
        assert g.inverses == tuple(range(g.n))
    with pytest.raises(ValueError):
        dihedral(0)


def test_hash_is_computed_once(monkeypatch):
    g = symmetric(3)
    before = hash(g)
    assert hash(symmetric(3)) == before and symmetric(3) == g
    # a later hash reads neither the names nor the table
    monkeypatch.setattr(g, "names", None)
    monkeypatch.setattr(g, "table", None)
    assert hash(g) == before
