"""The search by generator images against the old element-by-element search.

`search.generated_maps` tries images for a generating set of the source
only, and every other image is forced. `product_preserving_maps`, kept
here as the oracle, assigns every element in turn and checks each product
once its three elements have images. It listed the group and monoid
homomorphisms and the isomorphisms before: both searches must list the same
homomorphisms in the same order, and `monoid_isomorphic` must give the
least isomorphism the old injective search found first. They are compared
on every group pair and every cover search of the acceptance pools, on
pairs of covers and monoids, and on tables with their elements relabeled at
random, so the generating sets differ from those of the built-in tables.
"""

import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

import fzcover.enumeration as enumeration
from fzcover import (
    build_cover,
    chain_monoid,
    cyclic,
    default_grid,
    dihedral,
    enumerate_cover_morphisms,
    enumerate_fuzzy_subgroups_filter,
    enumerate_group_homomorphisms,
    enumerate_monoid_homomorphisms,
    klein_four,
    monoid_isomorphic,
    symmetric,
    validate_fuzzy,
    validate_group,
    validate_inverse_monoid,
)
from fzcover.cover import _element_signatures
from fzcover.errors import DEFAULT_BUDGET, BudgetExceeded
from fzcover.search import generator_plan
from tests.test_cover import relabeled_monoid
from tests.test_monoids import group_as_monoid, symmetric_inverse_monoid_2

F = Fraction


def product_preserving_maps(
    source: Sequence[Sequence[int]],
    target: Sequence[Sequence[int]],
    candidates: Sequence[Sequence[int]],
    *,
    budget: int,
    label: str,
    injective: bool = False,
    first: bool = False,
) -> list[tuple[int, ...]]:
    """Every map f with f(x) in candidates[x] and f(a*b) = f(a)*f(b).

    With sorted candidate lists the maps come in lexicographic order, as a
    brute-force filter over all choices would list them.  ``injective`` skips
    images already used; ``first`` stops at the first map.  Each product
    a*b = p is checked once a, b and p all have images.  Examining more than
    ``budget`` candidate images (nodes) raises BudgetExceeded naming
    ``label``.  An explicit position per element replaces recursion, so depth
    is unbounded.
    """
    n = len(source)
    if not all(candidates):
        return []
    # checks[i]: the products whose three elements all have images once f(i) is set
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        row = source[a]
        for b in range(n):
            p = row[b]
            checks[max(a, b, p)].append((a, b, p))

    image = [0] * n
    used = [False] * len(target)
    position = [0] * n
    results: list[tuple[int, ...]] = []
    nodes = 0
    i = 0
    while i >= 0:
        cands = candidates[i]
        if position[i] == len(cands):
            position[i] = 0
            i -= 1
            if i >= 0 and injective:
                used[image[i]] = False
            continue
        v = cands[position[i]]
        position[i] += 1
        if injective and used[v]:
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget, label)
        image[i] = v
        for a, b, p in checks[i]:
            if image[p] != target[image[a]][image[b]]:
                break
        else:
            if i + 1 == n:
                results.append(tuple(image))
                if first:
                    return results
            else:
                if injective:
                    used[v] = True
                i += 1
    return results


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


def monoid_homs_by_engine(source, target, *, allowed=None, budget=DEFAULT_BUDGET):
    """The search `enumerate_monoid_homomorphisms` made before."""
    if allowed is None:
        domains = [list(range(target.n)) for _ in range(source.n)]
    else:
        domains = [sorted(set(a)) for a in allowed]
    domains[source.unit] = [v for v in domains[source.unit] if v == target.unit]
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
    # one fstar search per pair, and it finds the map to the unit pair of
    # the target, a cover morphism for every pair
    assert len(searches) == pairs and sum(searches) > 0


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
    # element, as the cover search passes its fibers and maxima
    source, target = draw(relabeled_monoids()), draw(relabeled_monoids())
    allowed = None
    if draw(st.booleans()):
        images = st.sets(st.integers(0, target.n - 1), min_size=1)
        allowed = [draw(images) for _ in range(source.n)]
    return source, target, {"allowed": allowed}


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


def isomorphism_by_engine(a, b, budget=DEFAULT_BUDGET):
    """The search `monoid_isomorphic` made before: the first injective map."""
    if a.n != b.n:
        return None
    da, db = a.derived, b.derived
    if len(da.idempotents) != len(db.idempotents):
        return None
    for pa, pb in ((da.sigma, db.sigma), (da.green_h, db.green_h)):
        if sorted(map(len, pa.classes)) != sorted(map(len, pb.classes)):
            return None
    sig_b: dict = {}
    for y, sig in enumerate(_element_signatures(b)):
        sig_b.setdefault(sig, []).append(y)
    candidates = [sig_b.get(sig, []) for sig in _element_signatures(a)]
    found = product_preserving_maps(
        a.table,
        b.table,
        candidates,
        budget=budget,
        label="monoid isomorphism nodes",
        injective=True,
        first=True,
    )
    return found[0] if found else None


def _isomorphism_pool():
    # the covers of test_relabeled_cover_is_isomorphic, the 120-element cover
    # of C64, and two monoids that are not covers
    monoids = [build_cover(validate_fuzzy(cyclic(2), [F(1), F(1, 2)])).monoid]
    for fz in enumerate_fuzzy_subgroups_filter(dihedral(4), default_grid(3)):
        monoids.append(build_cover(fz).monoid)
    levels = (F(1, 4), F(1, 2), F(3, 4), F(1))
    mu = [levels[sum(x % d == 0 for d in (2, 4, 8))] for x in range(64)]
    monoids.append(build_cover(validate_fuzzy(cyclic(64), mu)).monoid)
    monoids += [group_as_monoid(symmetric(4)), symmetric_inverse_monoid_2()]
    return monoids


def _is_isomorphism(f, a, b):
    return (
        sorted(f) == list(range(b.n))
        and f[a.unit] == b.unit
        and all(
            f[a.table[x][y]] == b.table[f[x]][f[y]] for x in range(a.n) for y in range(a.n)
        )
    )


def test_isomorphisms_match_the_engine():
    # the D4 covers run the injective search's release of an image it
    # backtracks past
    rng = random.Random(0)
    monoids = _isomorphism_pool()
    assert len(monoids) == 49 and monoids[46].n == 120
    relabeled = [relabeled_monoid(m, rng.sample(range(m.n), m.n)) for m in monoids]
    pairs = [(m, m) for m in monoids] + list(zip(monoids, relabeled))
    everything = monoids + relabeled
    pairs += [(rng.choice(everything), rng.choice(everything)) for _ in range(300)]
    # monoids of one size, where the signatures alone rarely tell them apart
    by_size: dict = {}
    for m in everything:
        by_size.setdefault(m.n, []).append(m)
    same_size = [ms for ms in by_size.values() if len(ms) > 1]
    pairs += [tuple(rng.sample(rng.choice(same_size), 2)) for _ in range(300)]
    isomorphic = beyond_engine = 0
    for a, b in pairs:
        found = monoid_isomorphic(a, b)
        isomorphic += found is not None
        try:
            expected = isomorphism_by_engine(a, b, budget=10**5)
        except BudgetExceeded:
            # from the relabeled C64 cover to the cover, the old search tries
            # more than 10**5 images, and more than 10**6 at the default
            # budget; the new one tries fewer than 10**3
            assert a.n == 120 and a is not b and _is_isomorphism(found, a, b)
            beyond_engine += 1
            continue
        assert found == expected
    assert isomorphic == 392 and beyond_engine == 15
