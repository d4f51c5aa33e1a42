"""The search by generator images against the engine's homomorphism mode.

`search.generated_maps` tries images for a generating set of the source
only, and every other image is forced. `search.product_preserving_maps`
assigns every element in turn and checks each product once its three
elements have images. It listed the group and monoid homomorphisms before,
and here it is the oracle: both searches must list the same maps in the
same order. They are compared on every group pair and every cover search
of the acceptance pools, and on tables with their elements relabeled at
random, so the generating sets differ from those of the built-in tables.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fzcover.enumeration as enumeration
from fzcover import (
    build_cover,
    chain_monoid,
    cyclic,
    dihedral,
    enumerate_cover_morphisms,
    enumerate_group_homomorphisms,
    enumerate_monoid_homomorphisms,
    klein_four,
    symmetric,
    validate_fuzzy,
    validate_group,
    validate_inverse_monoid,
)
from fzcover.errors import DEFAULT_BUDGET, BudgetExceeded
from fzcover.search import generator_plan, product_preserving_maps
from tests.test_monoids import group_as_monoid, symmetric_inverse_monoid_2

F = Fraction


def homs_by_engine(source, target, domains, budget=DEFAULT_BUDGET):
    return product_preserving_maps(
        source.table, target.table, domains, budget=budget, label="engine nodes"
    )


def group_homs_by_engine(source, target, budget=DEFAULT_BUDGET):
    """The search `enumerate_group_homomorphisms` made before."""
    domains = [
        [target.identity] if x == source.identity else list(range(target.n))
        for x in range(source.n)
    ]
    return homs_by_engine(source, target, domains, budget)


def monoid_homs_by_engine(
    source, target, *, allowed=None, preserve_maxima=False, budget=DEFAULT_BUDGET
):
    """The search `enumerate_monoid_homomorphisms` made before."""
    if allowed is None:
        domains = [list(range(target.n)) for _ in range(source.n)]
    else:
        domains = [sorted(set(a)) for a in allowed]
    domains[source.unit] = [v for v in domains[source.unit] if v == target.unit]
    if preserve_maxima:
        src_max = {m for m in source.derived.sigma_maxima if m is not None}
        tgt_max = {m for m in target.derived.sigma_maxima if m is not None}
        for x in src_max:
            domains[x] = [v for v in domains[x] if v in tgt_max]
    return homs_by_engine(source, target, domains, budget)


def test_every_group_pair_of_the_acceptance_pools_matches_the_engine(acceptance_pools):
    groups = list({fz.group: None for pool in acceptance_pools for fz in pool})
    assert len(groups) == 5
    for source in groups:
        for target in groups:
            assert enumerate_group_homomorphisms(source, target) == group_homs_by_engine(
                source, target
            )


def test_every_cover_search_of_the_acceptance_pools_matches_the_engine(
    monkeypatch, acceptance_pools
):
    # objects of one shape (group and ranks) have covers with equal tables,
    # so one cover per shape makes every distinct search of a pool
    searches = []
    search = enumeration.enumerate_monoid_homomorphisms

    def checking(source, target, **kw):
        found = search(source, target, **kw)
        assert found == monoid_homs_by_engine(source, target, **kw)
        searches.append(len(found))
        return found

    monkeypatch.setattr(enumeration, "enumerate_monoid_homomorphisms", checking)
    pairs = 0
    for pool in acceptance_pools:
        shapes = {(fz.group, fz._rank): build_cover(fz).triple for fz in pool}
        for a in shapes.values():
            for b in shapes.values():
                enumerate_cover_morphisms(a, b)
                pairs += 1
    assert pairs == 10**2 + 26**2
    # one lam search per pair, and at least one fstar search, as the map to
    # the unit pair of the target is a cover morphism for every pair
    assert len(searches) > 2 * pairs and sum(searches) > 0


def _relabeled(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


GROUPS = [cyclic(n) for n in (1, 2, 3, 4, 6)] + [klein_four(), symmetric(3), dihedral(4)]


@st.composite
def relabeled_groups(draw):
    group = draw(st.sampled_from(GROUPS))
    perm = draw(st.permutations(range(group.n)))
    return validate_group([f"x{i}" for i in range(group.n)], _relabeled(group.table, perm))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(relabeled_groups(), relabeled_groups())
def test_relabeled_group_pairs_match_the_engine(source, target):
    assert enumerate_group_homomorphisms(source, target) == group_homs_by_engine(source, target)


def _monoids():
    z2 = validate_fuzzy(cyclic(2), [F(1), F(1, 2)])
    c4 = validate_fuzzy(cyclic(4), [F(1), F(1, 3), F(2, 3), F(1, 3)])
    v4 = validate_fuzzy(klein_four(), [F(1), F(1, 2), F(1, 4), F(1, 4)])
    return [build_cover(fz).monoid for fz in (z2, c4, v4)] + [
        chain_monoid([F(1, 4), F(1, 2), F(1)]),
        symmetric_inverse_monoid_2(),
        group_as_monoid(cyclic(3)),
    ]


MONOIDS = _monoids()


@st.composite
def relabeled_monoids(draw):
    monoid = draw(st.sampled_from(MONOIDS))
    perm = draw(st.permutations(range(monoid.n)))
    names = [f"x{i}" for i in range(monoid.n)]
    return validate_inverse_monoid(names, _relabeled(monoid.table, perm), perm[monoid.unit])


@st.composite
def monoid_searches(draw):
    # two relabeled monoids, and now and then a random candidate set per
    # element and the maxima restriction, as the cover search passes them
    source, target = draw(relabeled_monoids()), draw(relabeled_monoids())
    allowed = None
    if draw(st.booleans()):
        images = st.sets(st.integers(0, target.n - 1), min_size=1)
        allowed = [draw(images) for _ in range(source.n)]
    return source, target, {"allowed": allowed, "preserve_maxima": draw(st.booleans())}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monoid_searches())
def test_relabeled_monoid_searches_match_the_engine(drawn):
    source, target, kw = drawn
    assert enumerate_monoid_homomorphisms(source, target, **kw) == monoid_homs_by_engine(
        source, target, **kw
    )


def test_a_plan_drops_each_generator_the_others_generate():
    c6 = cyclic(6).table
    # 3 and 1 generate C6, and then 1 alone does
    assert [level[0] for level in generator_plan(c6, [2, 3, 1])] == [1]
    assert [level[0] for level in generator_plan(c6, [2, 3])] == [2, 3]
    with pytest.raises(ValueError, match="do not generate"):
        generator_plan(c6, [2])


def test_the_budget_counts_generator_images():
    # C6 has one generator, and every image of it keeps its powers in C6:
    # six images tried, where the engine tried more than six nodes
    assert len(enumerate_group_homomorphisms(cyclic(6), cyclic(6), budget=6)) == 6
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_group_homomorphisms(cyclic(6), cyclic(6), budget=5)
    assert str(exc.value) == "6 group homomorphism nodes exceed budget 5"
    with pytest.raises(BudgetExceeded):
        group_homs_by_engine(cyclic(6), cyclic(6), budget=6)
    # an image whose square is not the identity is cut before it is tried,
    # and so is a non-idempotent image of an idempotent: the unit and the
    # one idempotent image of the other element of a two-element chain
    assert enumerate_group_homomorphisms(cyclic(2), cyclic(3), budget=1) == [(0, 0)]
    two = chain_monoid([F(1, 2), F(1)])
    assert enumerate_monoid_homomorphisms(two, group_as_monoid(cyclic(3)), budget=2) == [(0, 0)]

