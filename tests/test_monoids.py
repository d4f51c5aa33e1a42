from fractions import Fraction
from itertools import combinations, product

import pytest

from fzcover import (
    build_cover,
    chain_monoid,
    cyclic,
    enumerate_monoid_homomorphisms,
    green_relations,
    is_clifford,
    is_f_inverse,
    is_idempotent_separating,
    is_monoid_homomorphism,
    is_surjective,
    natural_order,
    sigma,
    validate_inverse_monoid,
)
from fzcover.errors import (
    BudgetExceeded,
    EmptyChain,
    NoInverse,
    NonUniqueInverse,
    NotUnital,
    OutOfRange,
    Unsorted,
)

F = Fraction


def group_as_monoid(g):
    return validate_inverse_monoid(list(g.names), [list(r) for r in g.table], g.identity)


def symmetric_inverse_monoid_2():
    """All partial injective maps on 2 points, composed right-to-left."""
    maps = [
        (None, None),
        (0, None),
        (1, None),
        (None, 0),
        (None, 1),
        (0, 1),
        (1, 0),
    ]
    index = {m: i for i, m in enumerate(maps)}

    def compose(f, g):
        return tuple(
            f[g[x]] if g[x] is not None else None for x in range(2)
        )

    table = [[index[compose(f, g)] for g in maps] for f in maps]
    names = ["0", "e1", "a", "a'", "e2", "id", "sw"]
    return validate_inverse_monoid(names, table, index[(0, 1)])


# -- validation ----------------------------------------------------------------

def test_chain_monoid_two_values():
    m = chain_monoid([F(1, 2), F(1)])
    assert m.n == 2 and m.unit == 1
    assert m.inverse == (0, 1)  # every element self-inverse
    assert m.derived.idempotents == (0, 1)


def test_group_is_inverse_monoid():
    g = cyclic(4)
    m = group_as_monoid(g)
    assert m.inverse == g.inverses
    assert m.derived.idempotents == (g.identity,)


def test_left_zero_with_unit_has_non_unique_inverses():
    # left-zero pair {a, b} with a unit adjoined: both a and b invert a
    table = [
        [0, 0, 0],
        [1, 1, 1],
        [0, 1, 2],
    ]
    with pytest.raises(NonUniqueInverse) as exc:
        validate_inverse_monoid(["a", "b", "u"], table, 2)
    assert exc.value.witness[0] == 0


def test_nilpotent_element_has_no_inverse():
    # {1, a, 0} with a*a = 0: a*y*a is 0 for every y, never a
    table = [
        [0, 1, 2],
        [1, 2, 2],
        [2, 2, 2],
    ]
    with pytest.raises(NoInverse) as exc:
        validate_inverse_monoid(["1", "a", "0"], table, 0)
    assert exc.value.witness == 1
    assert str(exc.value) == "element a has no generalized inverse"


def test_not_unital():
    with pytest.raises(NotUnital):
        validate_inverse_monoid(["a", "b"], [[0, 0], [0, 0]], 0)
    # not associative either ((x*x)*x = y, x*(x*x) = x): the unit is checked first
    with pytest.raises(NotUnital):
        validate_inverse_monoid(["x", "y"], [[1, 0], [1, 1]], 0)


def test_unit_index_out_of_range():
    for unit in (2, -1):
        with pytest.raises(NotUnital, match=f"unit index {unit} out of range"):
            validate_inverse_monoid(["a", "b"], [[0, 1], [1, 1]], unit)


def test_chain_monoid_errors():
    with pytest.raises(EmptyChain):
        chain_monoid([])
    with pytest.raises(OutOfRange):
        chain_monoid([F(1, 2), F(3, 2)])
    with pytest.raises(Unsorted):
        chain_monoid([F(1), F(1, 2)])


# -- derived structure -----------------------------------------------------------

def test_natural_order_on_chain_is_numeric_order():
    values = [F(1, 4), F(1, 2), F(1)]
    m = chain_monoid(values)
    leq = natural_order(m)
    for i in range(3):
        for j in range(3):
            assert leq[i][j] == (values[i] <= values[j])


def test_natural_order_on_group_is_equality():
    m = group_as_monoid(cyclic(3))
    leq = natural_order(m)
    for i in range(3):
        for j in range(3):
            assert leq[i][j] == (i == j)


def test_natural_order_on_running_cover(fz_z2):
    cover = build_cover(fz_z2)
    leq = natural_order(cover.monoid)
    i_half_e = cover.pair_index[(0, 0)]
    i_one_e = cover.pair_index[(1, 0)]
    i_half_a = cover.pair_index[(0, 1)]
    assert leq[i_half_e][i_one_e]
    assert not leq[i_one_e][i_half_e]
    assert [j for j in range(3) if leq[i_half_a][j]] == [i_half_a]


def test_sigma_on_chain_is_single_class():
    m = chain_monoid([F(1, 2), F(1)])
    classes, quotient, proj = sigma(m)
    assert len(classes.classes) == 1
    assert quotient.n == 1
    assert proj == (0, 0)


def test_sigma_on_group_is_equality():
    g = cyclic(3)
    m = group_as_monoid(g)
    classes, quotient, _ = sigma(m)
    assert all(len(c) == 1 for c in classes.classes)
    assert quotient.table == g.table


def test_sigma_on_running_cover(fz_z2):
    cover = build_cover(fz_z2)
    classes, quotient, _ = sigma(cover.monoid)
    as_pairs = [tuple(cover.pairs[i] for i in cls) for cls in classes.classes]
    assert sorted(as_pairs) == [(((0, 0), (1, 0))), ((0, 1),)]
    assert quotient.n == 2


def test_green_relations_examples(fz_z2):
    chain = chain_monoid([F(1, 4), F(1, 2), F(1)])
    h, r, l = green_relations(chain)
    assert all(len(c) == 1 for c in h.classes)
    assert all(len(c) == 1 for c in r.classes)
    assert all(len(c) == 1 for c in l.classes)

    grp = group_as_monoid(cyclic(4))
    h, r, l = green_relations(grp)
    assert len(h.classes) == 1

    cover = build_cover(fz_z2)
    h, _, _ = green_relations(cover.monoid)
    as_pairs = sorted(tuple(cover.pairs[i] for i in cls) for cls in h.classes)
    assert as_pairs == [(((0, 0), (0, 1))), ((1, 0),)]


def test_is_f_inverse_examples(fz_z2):
    chain = chain_monoid([F(1, 2), F(1)])
    flag, maxima = is_f_inverse(chain)
    assert flag and maxima == (1,)

    grp = group_as_monoid(cyclic(3))
    flag, maxima = is_f_inverse(grp)
    assert flag and set(maxima) == {0, 1, 2}

    cover = build_cover(fz_z2)
    flag, maxima = is_f_inverse(cover.monoid)
    assert flag
    assert sorted(cover.pairs[m] for m in maxima) == [(0, 1), (1, 0)]


def test_symmetric_inverse_monoid_is_not_f_inverse_nor_clifford():
    m = symmetric_inverse_monoid_2()
    assert not is_clifford(m)
    flag, _ = is_f_inverse(m)
    assert not flag
    # non-central idempotent exists by search
    idem = m.derived.idempotents
    assert any(
        m.table[e][x] != m.table[x][e] for e in idem for x in range(m.n)
    )


def test_is_clifford_examples(fz_z2, fz_v4):
    assert is_clifford(chain_monoid([F(1, 2), F(1)]))
    assert is_clifford(build_cover(fz_z2).monoid)
    assert is_clifford(build_cover(fz_v4).monoid)


def test_clifford_covers_have_h_equal_r(fz_z2, fz_v4):
    for fz in (fz_z2, fz_v4):
        m = build_cover(fz).monoid
        h, r, _ = green_relations(m)
        assert h == r


# -- homomorphism predicates -----------------------------------------------------

def test_projection_is_hom_surjective_idempotent_separating(fz_z2):
    cover = build_cover(fz_z2)
    proj = cover.projection
    assert is_monoid_homomorphism(proj, cover.monoid, cover.base)
    assert is_surjective(proj, cover.monoid, cover.base)
    assert is_idempotent_separating(proj, cover.monoid, cover.base)


def test_constant_to_unit_map_is_hom_but_not_separating():
    m = chain_monoid([F(1, 2), F(1)])
    const = (1, 1)
    assert is_monoid_homomorphism(const, m, m)
    assert not is_idempotent_separating(const, m, m)
    assert not is_surjective(const, m, m)


def test_identity_map_predicates():
    m = chain_monoid([F(1, 2), F(1)])
    identity = (0, 1)
    assert is_monoid_homomorphism(identity, m, m)
    assert is_idempotent_separating(identity, m, m)
    assert is_surjective(identity, m, m)


def test_accepted_homs_respect_inverses():
    a = chain_monoid([F(1, 4), F(1, 2), F(1)])
    b = chain_monoid([F(1, 2), F(1)])
    for f in enumerate_monoid_homomorphisms(a, b):
        assert all(f[a.inverse[x]] == b.inverse[f[x]] for x in range(a.n))


# -- homomorphism enumeration ------------------------------------------------------

def brute_force_monoid_homs(m, n):
    return [
        f
        for f in product(range(n.n), repeat=m.n)
        if f[m.unit] == n.unit
        and all(
            f[m.table[a][b]] == n.table[f[a]][f[b]]
            for a in range(m.n)
            for b in range(m.n)
        )
    ]


def test_enumerate_monoid_homomorphisms_examples():
    two = chain_monoid([F(1, 2), F(1)])
    one = chain_monoid([F(1)])
    other = chain_monoid([F(1, 4), F(1)])
    assert enumerate_monoid_homomorphisms(two, one) == [(0, 0)]
    assert enumerate_monoid_homomorphisms(two, other) == [(0, 1), (1, 1)]
    # backtracking agrees with plain brute force
    sim = symmetric_inverse_monoid_2()
    assert enumerate_monoid_homomorphisms(sim, two) == brute_force_monoid_homs(sim, two)
    assert enumerate_monoid_homomorphisms(two, sim) == brute_force_monoid_homs(two, sim)


def test_monoid_homomorphism_budget_counts_candidates():
    two = chain_monoid([F(1, 2), F(1)])
    other = chain_monoid([F(1, 4), F(1)])
    # both elements are generators: the unit tries its one image, then
    # element 0 tries images 0 and 1
    assert enumerate_monoid_homomorphisms(two, other, budget=3) == [(0, 1), (1, 1)]
    with pytest.raises(BudgetExceeded, match="3 monoid homomorphism nodes exceed budget 2"):
        enumerate_monoid_homomorphisms(two, other, budget=2)


def test_allowed_must_give_a_candidate_set_per_element():
    two = chain_monoid([F(1, 2), F(1)])
    three = chain_monoid([F(1, 4), F(1, 2), F(1)])
    with pytest.raises(ValueError, match="a candidate set per source element"):
        enumerate_monoid_homomorphisms(two, three, allowed=[[0, 1, 2]])


def test_allowed_images_must_be_elements_of_the_target():
    # a negative image would read a target row from its end
    two = chain_monoid([F(1, 2), F(1)])
    three = chain_monoid([F(1, 4), F(1, 2), F(1)])
    for image in (7, 3, -1, -4):
        with pytest.raises(ValueError, match="elements of the target"):
            enumerate_monoid_homomorphisms(two, three, allowed=[[image], [2]])
    assert enumerate_monoid_homomorphisms(two, three, allowed=[[0, 1, 2], [2]]) == [
        (0, 2),
        (1, 2),
        (2, 2),
    ]


def test_cover_endomorphism_count_matches_hom_set(fz_z2):
    # cross-check against the embedding: morphism count on the cover side
    from fzcover import embed_object, enumerate_cover_morphisms, enumerate_fuzzy_morphisms

    obj = embed_object(fz_z2)
    fc = enumerate_cover_morphisms(obj, obj)
    fg = enumerate_fuzzy_morphisms(fz_z2, fz_z2)
    assert len(fc) == len(fg) == 2


# -- chain-map equivalence ---------------------------------------------------------

def all_chains_from_default_grid():
    levels = [F(1, 4), F(1, 2), F(3, 4), F(1)]
    chains = []
    for r in range(1, 5):
        chains.extend(combinations(levels, r))
    return chains


def test_order_and_top_preserving_iff_monoid_homomorphism():
    chains = all_chains_from_default_grid()
    monoids = {c: chain_monoid(c) for c in chains}
    for cu in chains:
        for cv in chains:
            mu, mv = monoids[cu], monoids[cv]
            for f in product(range(len(cv)), repeat=len(cu)):
                monotone = all(f[i] <= f[i + 1] for i in range(len(cu) - 1))
                top = f[len(cu) - 1] == len(cv) - 1
                assert (monotone and top) == is_monoid_homomorphism(f, mu, mv)


# -- least group congruence spot-check ----------------------------------------------

def all_partitions(n):
    """Restricted-growth-string enumeration of set partitions of range(n)."""
    def extend(prefix, m):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(m + 1):
            yield from extend(prefix + [c], max(m, c + 1))

    yield from extend([0], 1) if n else iter(())


def is_group_congruence(m, class_of):
    for x in range(m.n):
        for y in range(m.n):
            if class_of[x] != class_of[y]:
                continue
            for z in range(m.n):
                if class_of[m.table[x][z]] != class_of[m.table[y][z]]:
                    return False
                if class_of[m.table[z][x]] != class_of[m.table[z][y]]:
                    return False
    # quotient must be a group: every class invertible against the unit class
    classes = sorted(set(class_of))
    unit_class = class_of[m.unit]
    for c in classes:
        x = class_of.index(c)
        if not any(
            class_of[m.table[x][y]] == unit_class and class_of[m.table[y][x]] == unit_class
            for y in range(m.n)
        ):
            return False
    return True


def test_sigma_is_smallest_group_congruence(fz_z2, v4):
    from fzcover import validate_fuzzy

    six_element_cover = build_cover(
        validate_fuzzy(v4, [F(1), F(1), F(1, 2), F(1, 2)])
    ).monoid
    small = [
        chain_monoid([F(1, 2), F(1)]),
        chain_monoid([F(1, 4), F(1, 2), F(1)]),
        build_cover(fz_z2).monoid,
        group_as_monoid(cyclic(4)),
        six_element_cover,
    ]
    for m in small:
        assert m.n <= 6
        classes, _, proj = sigma(m)
        for part in all_partitions(m.n):
            if is_group_congruence(m, list(part)):
                # every sigma class sits inside one class of the congruence
                for cls in classes.classes:
                    assert len({part[x] for x in cls}) == 1


def test_idempotent_order_is_multiplication_order(fz_v4):
    for m in (
        chain_monoid([F(1, 4), F(1, 2), F(1)]),
        symmetric_inverse_monoid_2(),
        build_cover(fz_v4).monoid,
    ):
        leq = natural_order(m)
        for e in m.derived.idempotents:
            for f in m.derived.idempotents:
                assert leq[e][f] == (m.table[e][f] == e)


# -- independent characterizations as cross-check oracles ---------------------------
#
# The derived structure is computed from closed forms (x <= y iff
# x = y*(x^-1 x); x ~ y iff x*e = y*e for an idempotent e; R and L from
# x x^-1 and x^-1 x), and tests/test_derivation.py compares it with the
# witness definitions (an idempotent e with x = y*e; principal ideal sets).
# Each relation below is recomputed from yet another classical description
# and must coincide.

def _fixture_monoids(fz_z2, fz_v4):
    return [
        chain_monoid([F(1, 2), F(1)]),
        chain_monoid([F(1, 4), F(1, 2), F(1)]),
        group_as_monoid(cyclic(4)),
        build_cover(fz_z2).monoid,
        build_cover(fz_v4).monoid,
        symmetric_inverse_monoid_2(),
    ]


def test_natural_order_alternative_form(fz_z2, fz_v4):
    # x <= y iff x = (x x^-1) y
    for m in _fixture_monoids(fz_z2, fz_v4):
        leq = natural_order(m)
        for x in range(m.n):
            for y in range(m.n):
                alt = m.table[m.table[x][m.inverse[x]]][y] == x
                assert alt == leq[x][y]


def test_sigma_by_common_lower_bound(fz_z2, fz_v4):
    # two elements are congruent iff they share a lower bound
    for m in _fixture_monoids(fz_z2, fz_v4):
        leq = natural_order(m)
        _, _, proj = sigma(m)
        for x in range(m.n):
            for y in range(m.n):
                alt = any(leq[z][x] and leq[z][y] for z in range(m.n))
                assert alt == (proj[x] == proj[y])


def test_natural_order_is_compatible_with_multiplication(fz_z2, fz_v4):
    for m in _fixture_monoids(fz_z2, fz_v4):
        leq = natural_order(m)
        for a in range(m.n):
            for b in range(m.n):
                if not leq[a][b]:
                    continue
                for c in range(m.n):
                    assert leq[m.table[a][c]][m.table[b][c]]
                    assert leq[m.table[c][a]][m.table[c][b]]


def test_green_relations_by_mutual_divisibility(fz_z2, fz_v4):
    # a R b iff each is a left multiple of the other; dually for L
    for m in _fixture_monoids(fz_z2, fz_v4):
        _, r, l = green_relations(m)
        t = m.table
        for a in range(m.n):
            for b in range(m.n):
                r_alt = any(t[a][u] == b for u in range(m.n)) and any(
                    t[b][v] == a for v in range(m.n)
                )
                l_alt = any(t[u][a] == b for u in range(m.n)) and any(
                    t[v][b] == a for v in range(m.n)
                )
                assert r_alt == (r.class_of[a] == r.class_of[b])
                assert l_alt == (l.class_of[a] == l.class_of[b])
