import dataclasses
import gc
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

import fzcover.cover as cover_module
import fzcover.monoids as monoids_module
from fzcover import (
    ValueGrid,
    all_subgroups,
    build_cover,
    chain_monoid,
    cover_from_premorphism,
    cover_report,
    cyclic,
    default_grid,
    dihedral,
    embed_object,
    enumerate_cover_morphisms,
    enumerate_fuzzy_morphisms,
    enumerate_fuzzy_subgroups_chain,
    enumerate_fuzzy_subgroups_filter,
    enumerate_group_homomorphisms,
    enumerate_monoid_homomorphisms,
    enumerate_subgroup_chains,
    klein_four,
    parse_workspace,
    premorphism_from_cover,
    symmetric,
    validate_cover_morphism,
    validate_dual_premorphism,
    validate_fuzzy,
    validate_fuzzy_morphism,
    validate_group,
)
from fzcover import enumeration, search
from fzcover.errors import DEFAULT_BUDGET, BudgetExceeded, ValidationError
from fzcover.monoids import DerivedStructure, FiniteInverseMonoid
from tests.test_cover import on_fresh_group
from tests.test_monoids import group_as_monoid

F = Fraction


def test_value_grid_validation():
    ValueGrid((F(1, 2), F(1)))
    with pytest.raises(ValidationError):
        ValueGrid(())
    with pytest.raises(ValidationError):
        ValueGrid((F(1), F(1, 2)))
    with pytest.raises(ValidationError):
        ValueGrid((F(1, 4), F(1, 2)))  # missing 1
    with pytest.raises(ValidationError):
        ValueGrid((F(0), F(1)))


def test_default_grid():
    assert default_grid().levels == (F(1, 4), F(1, 2), F(3, 4), F(1))
    assert default_grid(2).levels == (F(1, 2), F(1))
    assert default_grid(1).levels == (F(1),)


def test_filter_enumeration_z2(z2):
    out = enumerate_fuzzy_subgroups_filter(z2, default_grid(2))
    assert len(out) == 3
    assert {fz.mu for fz in out} == {
        (F(1), F(1)),
        (F(1), F(1, 2)),
        (F(1, 2), F(1, 2)),
    }


def test_filter_enumeration_trivial_group():
    out = enumerate_fuzzy_subgroups_filter(cyclic(1), default_grid(4))
    assert [fz.mu for fz in out] == [(v,) for v in default_grid(4).levels]


def test_filter_enumeration_z3():
    out = enumerate_fuzzy_subgroups_filter(cyclic(3), default_grid(2))
    assert len(out) == 3
    # constants plus mu(e)=1 with both non-identity elements at 1/2
    assert (F(1), F(1, 2), F(1, 2)) in {fz.mu for fz in out}


def test_chain_enumeration_agrees(z2, v4):
    for group in (z2, v4):
        for k in (1, 2, 3):
            grid = default_grid(k)
            a = enumerate_fuzzy_subgroups_filter(group, grid)
            b = enumerate_fuzzy_subgroups_chain(group, grid)
            assert [fz.mu for fz in a] == [fz.mu for fz in b]


def test_chain_enumeration_single_level(v4):
    out = enumerate_fuzzy_subgroups_chain(v4, default_grid(1))
    assert len(out) == 1
    assert out[0].mu == (F(1),) * 4


def test_frozen_counts_on_default_grid(z2, v4, s3):
    grid = default_grid(4)
    expected = {
        "z2": (z2, 10),
        "z3": (cyclic(3), 10),
        "z4": (cyclic(4), 20),
        "v4": (v4, 40),
        "s3": (s3, 50),
    }
    for group, count in expected.values():
        by_filter = enumerate_fuzzy_subgroups_filter(group, grid)
        by_chain = enumerate_fuzzy_subgroups_chain(group, grid)
        assert len(by_filter) == count
        assert [fz.mu for fz in by_filter] == [fz.mu for fz in by_chain]


def test_enumerated_objects_revalidate(z2):
    for fz in enumerate_fuzzy_subgroups_filter(z2, default_grid(3)):
        again = validate_fuzzy(fz.group, fz.mu)
        assert again == fz


def test_subgroup_machinery(z2, v4):
    assert all_subgroups(z2) == [(0,), (0, 1)]
    chains = enumerate_subgroup_chains(z2)
    assert chains == [((0, 1),), ((0, 1), (0,))]

    v4_chains = enumerate_subgroup_chains(v4)
    assert ((0, 1, 2, 3), (0, 1), (0,)) in v4_chains

    z3_chains = enumerate_subgroup_chains(cyclic(3))
    assert len(z3_chains) == 2


def test_fuzzy_morphism_enumeration(fz_z2, fz_z2_const):
    homs = enumerate_fuzzy_morphisms(fz_z2, fz_z2)
    assert len(homs) == 2
    assert any(m.f == (0, 1) and m.lam == (0, 1) for m in homs)

    trivial = validate_fuzzy(cyclic(1), [F(1)])
    assert len(enumerate_fuzzy_morphisms(fz_z2, trivial)) == 1

    # lam is forced constant-top; f is unrestricted
    homs = enumerate_fuzzy_morphisms(fz_z2, fz_z2_const)
    assert len(homs) == 2
    assert {m.f for m in homs} == {(0, 0), (0, 1)}
    assert {m.lam for m in homs} == {(0, 0)}


def test_cover_morphism_enumeration_counts(fz_z2, fz_v4, fz_z2_const):
    trivial = validate_fuzzy(cyclic(1), [F(1)])
    assert (
        len(enumerate_cover_morphisms(embed_object(trivial), embed_object(trivial)))
        == 1
    )
    for f1, f2 in [(fz_z2, fz_v4), (fz_v4, fz_z2), (fz_z2, fz_z2_const)]:
        fg = enumerate_fuzzy_morphisms(f1, f2)
        fc = enumerate_cover_morphisms(embed_object(f1), embed_object(f2))
        assert len(fg) == len(fc)


def brute_force_cover_morphisms(o1, o2):
    """Oracle: filter the raw (fstar, lam) product space by the validator."""
    out = []
    for lam in product(range(o2.base.n), repeat=o1.base.n):
        for fstar in product(range(o2.monoid.n), repeat=o1.monoid.n):
            try:
                out.append(validate_cover_morphism(o1, o2, fstar, lam))
            except ValidationError:
                pass
    return out


def group_base_triples(group, base_group):
    """The covers of ``group`` over the group ``base_group`` as a monoid, one
    per onto group homomorphism psi, with pi(psi(h), h) = psi(h).  The base
    is not a semilattice, so an endomorphism of the cover commutes with the
    projections only when it keeps the kernel of psi."""
    base = group_as_monoid(base_group)
    return [
        cover_from_premorphism(validate_dual_premorphism(group, base, psi)).triple
        for psi in enumerate_group_homomorphisms(group, base_group)
        if len(set(psi)) == base_group.n
    ]


def test_cover_morphism_enumeration_is_complete(fz_z2, fz_z2_const, v4):
    small_v4 = validate_fuzzy(v4, [F(1), F(1), F(1, 2), F(1, 2)])
    over_c2 = group_base_triples(v4, cyclic(2))
    assert len(over_c2) == 3
    objects = [embed_object(fz) for fz in (fz_z2, fz_z2_const, small_v4)] + over_c2
    for o1 in objects:
        for o2 in objects:
            smart = enumerate_cover_morphisms(o1, o2)
            oracle = brute_force_cover_morphisms(o1, o2)
            assert sorted((m.lam, m.fstar) for m in smart) == sorted(
                (m.lam, m.fstar) for m in oracle
            )
    # over C2 the square drops half of the 16 endomorphisms of V4
    a = over_c2[0]
    assert len(enumerate_monoid_homomorphisms(a.monoid, a.monoid)) == 16
    assert len(enumerate_cover_morphisms(a, a)) == 8


def cover_morphisms_by_fibres(source, target, budget=DEFAULT_BUDGET):
    """Oracle: the cover search that searched lam first, then fstar per lam.

    lam is searched over the bases with the maxima of the source base sent
    to maxima of the target base; then, per lam, fstar(t) is searched in the
    fibre of the target projection over lam(pi(t)), cut to the target's
    maxima when t is a maximum.  Each search has the whole budget.
    """

    def maxima(monoid):
        return {m for m in monoid.derived.sigma_maxima if m is not None}

    source_base_max, target_base_max = maxima(source.base), maxima(target.base)
    lam_domains = [
        target_base_max if x in source_base_max else range(target.base.n)
        for x in range(source.base.n)
    ]
    lams = enumerate_monoid_homomorphisms(
        source.base, target.base, allowed=lam_domains, budget=budget
    )
    fibers: dict[int, list[int]] = {}
    for s in range(target.monoid.n):
        fibers.setdefault(target.projection[s], []).append(s)
    target_max = maxima(target.monoid)
    cut = {b: [s for s in fiber if s in target_max] for b, fiber in fibers.items()}
    source_max = maxima(source.monoid)
    over = [cut if t in source_max else fibers for t in range(source.monoid.n)]
    out = []
    for lam in lams:
        allowed = [over[t].get(lam[b], []) for t, b in enumerate(source.projection)]
        for fstar in enumerate_monoid_homomorphisms(
            source.monoid, target.monoid, allowed=allowed, budget=budget
        ):
            out.append(validate_cover_morphism(source, target, fstar, lam))
    return out


def one_cover_per_shape(pool):
    """The cover triple of the first subgroup of each shape (group and ranks) of ``pool``."""
    return list({(fz.group, fz._rank): build_cover(fz).triple for fz in pool}.values())


def test_one_search_lists_what_the_fibre_search_lists(acceptance_pools):
    # every shape pair of the acceptance pools, of D8 at k = 3 and of the
    # covers of V4 over C2, in the same order
    d8 = enumerate_fuzzy_subgroups_filter(dihedral(4), default_grid(3))
    pools = [one_cover_per_shape(pool) for pool in (*acceptance_pools, d8)]
    pools.append(group_base_triples(klein_four(), cyclic(2)))
    assert [len(covers) for covers in pools] == [10, 26, 25, 3]
    for covers in pools:
        for a in covers:
            for b in covers:
                assert enumerate_cover_morphisms(a, b) == cover_morphisms_by_fibres(a, b)


def largest_cover(group, k):
    """The cover of the first subgroup of the grid-k filter pool with the most pairs."""
    pool = enumerate_fuzzy_subgroups_filter(group, default_grid(k))
    return build_cover(max(pool, key=lambda fz: build_cover(fz).n)).triple


@pytest.mark.parametrize(
    "cover, nodes, found",
    [
        (  # the fz_v4 fixture
            lambda: embed_object(validate_fuzzy(klein_four(), [F(1), F(1, 2), F(1, 4), F(1, 4)])),
            26,
            6,
        ),
        (lambda: largest_cover(dihedral(4), 3), 86, 12),
        (lambda: largest_cover(symmetric(4), 2), 296, 58),
        (lambda: group_base_triples(klein_four(), cyclic(2))[0], 20, 8),
    ],
    ids=["V4-fixture", "D8-k3", "S4-k2", "V4-over-C2"],
)
def test_cover_search_node_counts_are_pinned(cover, nodes, found):
    # the smallest budgets under which the one fstar search of Hom(c, c) lists it
    c = cover()
    assert len(enumerate_cover_morphisms(c, c, budget=nodes)) == found
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_cover_morphisms(c, c, budget=nodes - 1)
    assert str(exc.value) == f"{nodes} monoid homomorphism nodes exceed budget {nodes - 1}"


def test_hom_counts_invariant_under_relabeling(fz_z2):
    # the same group with its elements listed in the other order
    swapped_group = validate_group(["a", "e"], [[1, 0], [0, 1]])
    swapped = validate_fuzzy(swapped_group, [F(1, 2), F(1)])
    assert len(enumerate_fuzzy_morphisms(swapped, swapped)) == len(
        enumerate_fuzzy_morphisms(fz_z2, fz_z2)
    )
    cert_count = len(
        enumerate_cover_morphisms(embed_object(swapped), embed_object(swapped))
    )
    assert cert_count == 2


def monotone_top_maps(k1: int, k2: int) -> list[tuple[int, ...]]:
    """Every monotone map of a k1-chain into a k2-chain that keeps the top,
    lexicographic: a multiset of k1 - 1 values out of k2, then the top."""
    return [prefix + (k2 - 1,) for prefix in combinations_with_replacement(range(k2), k1 - 1)]


def fuzzy_morphisms_over_every_lam(source, target):
    """Oracle: each group hom f with every monotone top-preserving lam, kept
    where the square commutes, as the enumerator did before lam was forced."""
    lams = monotone_top_maps(len(source.chain), len(target.chain))
    out = []
    for f in enumerate_group_homomorphisms(source.group, target.group):
        for lam in lams:
            if all(
                target.mu_index(f[x]) == lam[source.mu_index(x)] for x in range(source.n)
            ):
                out.append(validate_fuzzy_morphism(source, target, f, lam))
    return out


def test_forced_lam_lists_what_every_lam_lists(acceptance_pools):
    for pool in acceptance_pools:
        for a in pool:
            for b in pool:
                assert enumerate_fuzzy_morphisms(a, b) == fuzzy_morphisms_over_every_lam(a, b)


def test_a_given_group_hom_set_changes_no_fuzzy_hom_set(acceptance_pools):
    for pool in acceptance_pools:
        groups = {fz.group for fz in pool}
        group_homs = {(g, h): enumerate_group_homomorphisms(g, h) for g in groups for h in groups}
        for a in pool:
            for b in pool:
                given = group_homs[a.group, b.group]
                assert enumerate_fuzzy_morphisms(a, b, group_homs=given) == (
                    enumerate_fuzzy_morphisms(a, b)
                ), (a, b)


def test_a_given_group_hom_set_is_read_with_no_budget_check(fz_v4):
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_fuzzy_morphisms(fz_v4, fz_v4, budget=7)
    assert str(exc.value) == "8 group homomorphism nodes exceed budget 7"
    # the group hom-set, searched within its own budget, is only read
    group_homs = enumerate_group_homomorphisms(fz_v4.group, fz_v4.group)
    kept = list(group_homs)
    listed = enumerate_fuzzy_morphisms(fz_v4, fz_v4, budget=7, group_homs=group_homs)
    assert listed == enumerate_fuzzy_morphisms(fz_v4, fz_v4)
    assert group_homs == kept


def test_chain_hom_counts_are_binomials():
    # C(k2 + k1 - 2, k1 - 1) multisets of k1 - 1 values out of k2
    for k1 in range(1, 7):
        for k2 in range(1, 7):
            expected = comb(k2 + k1 - 2, k1 - 1)
            maps = monotone_top_maps(k1, k2)
            homs = enumerate_monoid_homomorphisms(
                chain_monoid(default_grid(k1).levels), chain_monoid(default_grid(k2).levels)
            )
            assert len(maps) == len(homs) == expected, (k1, k2)
            assert maps == homs


def test_budget_guards(v4, s3):
    with pytest.raises(BudgetExceeded):
        enumerate_fuzzy_subgroups_filter(s3, default_grid(4), budget=100)
    with pytest.raises(BudgetExceeded):
        enumerate_fuzzy_subgroups_chain(v4, default_grid(4), budget=3)
    with pytest.raises(BudgetExceeded):
        all_subgroups(symmetric(3), budget=10)
    # 16 subsets and 8 chains fit in 20, but not the value picks: 4 for the
    # chain V4 alone, then 6 for each of the 4 chains V4 > H
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_fuzzy_subgroups_chain(v4, default_grid(4), budget=20)
    assert str(exc.value) == "21 chain assignments exceed budget 20"


def test_filter_budget_counts_nodes(z2):
    # 4 ranks for e, then 4 for a under each: 20 nodes
    assert len(enumerate_fuzzy_subgroups_filter(z2, default_grid(4), budget=20)) == 10
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_fuzzy_subgroups_filter(z2, default_grid(4), budget=19)
    assert str(exc.value) == "20 fuzzy subgroup nodes exceed budget 19"


@pytest.mark.parametrize(
    "group, k, nodes, found",
    [(dihedral(4), 4, 1324, 125), (cyclic(8), 5, 4600, 70), (symmetric(4), 2, 1116, 31)],
    ids=["D8-k4", "C8-k5", "S4-k2"],
)
def test_filter_node_counts_are_pinned(group, k, nodes, found):
    # the smallest budgets that work: a check whose product is one of its
    # factors, or that repeats the swapped pair of a commuting product,
    # would cut nothing, so leaving those checks out moves none of them
    assert len(enumerate_fuzzy_subgroups_filter(group, default_grid(k), budget=nodes)) == found
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_fuzzy_subgroups_filter(group, default_grid(k), budget=nodes - 1)
    assert str(exc.value) == f"{nodes} fuzzy subgroup nodes exceed budget {nodes - 1}"


# -- the pruned filter and the iterative chain search against their definitions

def filter_by_definition(group, grid, budget=DEFAULT_BUDGET):
    """Oracle: the filter as a scan over every assignment group -> grid."""
    n = group.n
    k = grid.k
    space = k ** n
    if space > budget:
        raise BudgetExceeded(space, budget, "candidate assignments")
    table = group.table
    invs = group.inverses
    out = []
    for ranks in product(range(k), repeat=n):
        ok = all(ranks[invs[x]] == ranks[x] for x in range(n)) and all(
            ranks[table[x][y]] >= min(ranks[x], ranks[y])
            for x in range(n)
            for y in range(n)
        )
        if ok:
            out.append(validate_fuzzy(group, [grid.levels[r] for r in ranks]))
    return out


def chains_by_definition(group, budget=DEFAULT_BUDGET):
    """Oracle: the chains by recursion over all subgroups below the last one."""
    subgroups = all_subgroups(group, budget)
    chains = []

    def extend(chain):
        if len(chains) >= budget:
            raise BudgetExceeded(len(chains) + 1, budget, "chains")
        chains.append(tuple(chain))
        last = set(chain[-1])
        for sub in subgroups:
            if len(sub) < len(last) and set(sub) < last:
                chain.append(sub)
                extend(chain)
                chain.pop()

    extend([tuple(range(group.n))])
    return chains


def relabeled(group, order):
    """The same group with element order[i] of ``group`` listed as element i."""
    new = {old: i for i, old in enumerate(order)}
    names = [group.names[old] for old in order]
    table = [[new[group.table[a][b]] for b in order] for a in order]
    return validate_group(names, table)


S3_IDENTITY_LAST = relabeled(symmetric(3), [5, 3, 1, 4, 2, 0])
FILTER_GROUPS = {
    **{f"C{n}": cyclic(n) for n in range(1, 9)},
    "V4": klein_four(),
    "S3": symmetric(3),
    "D4": dihedral(4),
    "S3 identity last": S3_IDENTITY_LAST,
}


def test_relabeled_s3_moves_the_identity():
    assert S3_IDENTITY_LAST.identity == 5
    assert S3_IDENTITY_LAST.names[5] == "e"


@pytest.mark.parametrize("name", FILTER_GROUPS)
def test_filter_matches_scan_by_definition(name):
    group = FILTER_GROUPS[name]
    for k in range(1, 6):
        if k ** group.n > 10 ** 5:
            continue
        grid = default_grid(k)
        pruned = enumerate_fuzzy_subgroups_filter(group, grid)
        assert [fz.mu for fz in pruned] == [
            fz.mu for fz in filter_by_definition(group, grid)
        ]


def test_filter_budget_is_not_the_size_of_the_space():
    # 5^8 = 390625 assignments, but the pruned search visits 3480 nodes
    grid = default_grid(5)
    pruned = enumerate_fuzzy_subgroups_filter(dihedral(4), grid, budget=10_000)
    assert [fz.mu for fz in pruned] == [
        fz.mu for fz in filter_by_definition(dihedral(4), grid)
    ]


def subgroups_by_two_generators(group):
    """Oracle for groups whose subgroups are all 2-generated: each <x, y>."""
    subgroups = set()
    for x in range(group.n):
        for y in range(x, group.n):
            sub = {group.identity}
            while True:
                grown = sub | {group.table[a][g] for a in sub for g in (x, y)}
                if grown == sub:
                    break
                sub = grown
            subgroups.add(frozenset(sub))
    return subgroups


def test_filter_lists_s4_at_the_default_budget():
    # 3^24 assignments, far above the budget; every subgroup of S4 is
    # 2-generated, and on a 3-level grid each chain G > H1 > ... of m <= 3
    # subgroups takes C(3, m) value picks
    s4 = symmetric(4)
    subgroups = subgroups_by_two_generators(s4)
    assert len(subgroups) == 30
    whole = frozenset(range(24))
    below = {h: [k for k in subgroups if k < h] for h in subgroups}
    chains_of_three = sum(len(below[h]) for h in below[whole])
    found = [fz.mu for fz in enumerate_fuzzy_subgroups_filter(s4, default_grid(3))]
    assert len(found) == 3 + 3 * len(below[whole]) + chains_of_three == 181
    assert found == sorted(set(found))


CHAIN_GROUPS = [cyclic(n) for n in range(1, 17)] + [
    klein_four(),
    symmetric(3),
    dihedral(4),
    dihedral(5),
    dihedral(6),
    S3_IDENTITY_LAST,
]


def test_chains_match_recursion_by_definition():
    for group in CHAIN_GROUPS:
        assert enumerate_subgroup_chains(group) == chains_by_definition(group)


def test_cyclic_chains_follow_the_divisor_lattice():
    # the subgroups of C16 are those of order 1, 2, 4, 8, 16, totally ordered,
    # so each chain from the top is a choice of the four proper ones: 2^4
    chains = enumerate_subgroup_chains(cyclic(16))
    assert len(chains) == 16
    assert len(set(chains)) == 16


def test_chain_budget_counts_chains(monkeypatch):
    group = dihedral(4)
    subgroups = all_subgroups(group)
    count = len(chains_by_definition(group))

    def whole_list(group, budget):
        # all_subgroups refuses 2^n > budget first; lift that guard in both
        # versions to reach the count of chains
        return subgroups

    monkeypatch.setattr(enumeration, "all_subgroups", whole_list)
    monkeypatch.setitem(chains_by_definition.__globals__, "all_subgroups", whole_list)
    assert len(enumerate_subgroup_chains(group, budget=count)) == count
    messages = []
    for enumerate_ in (enumerate_subgroup_chains, chains_by_definition):
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_(group, budget=count - 1)
        messages.append(str(exc.value))
    assert messages == [f"{count} chains exceed budget {count - 1}"] * 2


# -- one chain monoid per chain length of an enumeration ------------------------

ENUMERATORS = (enumerate_fuzzy_subgroups_filter, enumerate_fuzzy_subgroups_chain)


def count_validations(monkeypatch):
    """The sizes of the tables `validate_inverse_monoid` is called on, in order."""
    calls = []
    real = monoids_module.validate_inverse_monoid

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(monoids_module, "validate_inverse_monoid", counting)
    monkeypatch.setattr(cover_module, "validate_inverse_monoid", counting)
    return calls


def assert_monoid_like(got, want):
    """Two validated monoids agree field by field, sigma-quotient included."""
    for name in ("names", "table", "unit", "inverse", "generators"):
        assert getattr(got, name) == getattr(want, name), name
    for field in dataclasses.fields(DerivedStructure):
        assert getattr(got.derived, field.name) == getattr(want.derived, field.name), field.name
    got_q, want_q = got.derived.sigma_quotient, want.derived.sigma_quotient
    for name in ("names", "table", "identity", "inverses", "generators"):
        assert getattr(got_q, name) == getattr(want_q, name), name


@pytest.mark.parametrize("enumerate_", ENUMERATORS, ids=lambda f: f.__name__)
def test_equal_chains_of_one_listing_share_one_base(enumerate_, monkeypatch):
    group = dihedral(4)
    listed = enumerate_(group, default_grid(3))
    calls = count_validations(monkeypatch)
    covers = [build_cover(fz) for fz in listed]
    # every cover has at least |G| pairs and every base at most three
    # elements, so the small tables are the bases, one per new chain length
    lengths = list(dict.fromkeys(len(fz.chain) for fz in listed))
    assert [n for n in calls if n < group.n] == lengths
    for fz, cover in zip(listed, covers):
        assert_monoid_like(cover.base, chain_monoid(fz.chain))
    assert 1 < len(lengths) < len({fz.chain for fz in listed}) < len(listed)


def monoids_kept(group):
    """The covers and bases `build_cover` kept in the group's facts, and no other entry."""
    return {key: m for key, m in group.facts.items() if key[0] in ("chain", "cover")}


def test_listings_of_one_group_share_its_monoids_and_parses_share_none(monkeypatch):
    group, grid = klein_four(), default_grid(3)
    listings = [enumerate_(group, grid) for enumerate_ in ENUMERATORS]
    shapes = {fz._rank for fz in listings[0]}
    lengths = {len(fz.chain) for fz in listings[0]}
    assert {fz._rank for fz in listings[1]} == shapes
    calls = count_validations(monkeypatch)
    covers = [[build_cover(fz) for fz in one] for one in listings]
    # the first listing validates each shape and chain length once, and the
    # second listing, of the same group object, finds them all
    assert len(calls) == len(shapes) + len(lengths)
    kept = monoids_kept(group)
    assert {key[0] for key in kept} == {"chain", "cover"}
    assert len(kept) == len(calls)
    for fz, cover in zip(listings[0] + listings[1], covers[0] + covers[1]):
        assert cover.monoid.table == kept[("cover", fz._rank)].table
        assert cover.base.table == kept[("chain", len(fz.chain))].table
    text = (
        "group z2\nelements e a\ntable\ne a\na e\nend\n"
        "fuzzy p on z2\nvalues e=1 a=1/2\nend\n"
        "fuzzy q on z2\nvalues e=1 a=1/2\nend\n"
    )
    parses = [parse_workspace(text).fuzzies for _ in range(2)]
    (p, q), (r, _) = (tuple(ws.values()) for ws in parses)
    assert p.group is q.group and p.group == r.group and p.group is not r.group
    assert p.chain == q.chain and p.base == q.base and p.base is not q.base
    assert p.base is not p.base  # built anew on each read
    calls.clear()
    first, second, third = (build_cover(fz) for fz in (p, q, r))
    assert first.base == second.base == third.base
    # p and q of one parse share their group's monoids; r, of another, not
    assert calls == [len(p.chain), first.n] * 2
    one, other = ({id(m) for m in monoids_kept(fz.group).values()} for fz in (p, r))
    assert one and other and not one & other


def test_d4_covers_validate_one_monoid_per_shape_plus_one_per_chain(monkeypatch):
    calls = count_validations(monkeypatch)
    listed = enumerate_fuzzy_subgroups_filter(dihedral(4), default_grid(4))
    assert calls == []
    covers = [build_cover(fz) for fz in listed]
    shapes = {(fz.group, fz._rank) for fz in listed}
    lengths = {len(fz.chain) for fz in listed}
    assert len(calls) == len(shapes) + len(lengths)  # 32 + 4 for 125 covers
    assert len(shapes) < len(covers)
    assert len(lengths) < len({fz.chain for fz in listed})


# -- one certified cover table per shape of an enumeration -----------------------

def assert_cover_like_lone(cover, fz):
    """The cover equals, field by field, that of fz re-validated on its own.

    The lone subgroup is validated on a fresh copy of its group, so its
    cover shares no monoid with those built before.
    """
    lone = build_cover(on_fresh_group(fz))
    assert_monoid_like(cover.monoid, lone.monoid)
    assert_monoid_like(cover.base, lone.base)
    assert cover.pairs == lone.pairs
    assert cover.projection == lone.projection


@pytest.mark.parametrize(
    "group, k",
    [(dihedral(4), 4), (symmetric(3), 3), (klein_four(), 3), (cyclic(6), 3)],
    ids=["D4", "S3", "V4", "C6"],
)
def test_covers_of_a_listing_equal_covers_validated_alone(group, k):
    listed = enumerate_fuzzy_subgroups_filter(group, default_grid(k))
    for fz in listed:
        assert_cover_like_lone(build_cover(fz), fz)
    # some shapes recur with other values, and some chain lengths with other
    # least values, so the shared tables are read and relabeled
    assert len({fz._rank for fz in listed}) < len(listed)
    least = {}
    for fz in listed:
        least.setdefault(len(fz.chain), set()).add(fz.chain[0])
    assert any(len(values) > 1 for values in least.values())


def monoids_held(obj):
    """The monoids an object holds, directly or in a dict it holds."""
    held = []
    for ref in gc.get_referents(obj):
        held += [m for m in (ref.values() if isinstance(ref, dict) else [ref])
                 if isinstance(m, FiniteInverseMonoid)]
    return held


def test_a_parsed_subgroup_validates_its_cover_once_and_its_group_keeps_it(monkeypatch):
    ws = parse_workspace(
        "group z2\nelements e a\ntable\ne a\na e\nend\n"
        "fuzzy p on z2\nvalues e=1 a=1/2\nend\n"
    )
    p = ws.fuzzies["p"]
    calls = count_validations(monkeypatch)
    first, second = build_cover(p), build_cover(p)
    # the base, then the cover, on the first call only
    assert calls == [len(p.chain), first.n]
    assert first.monoid == second.monoid and first.monoid is not second.monoid
    assert first.base == second.base and first.base is not second.base
    # the subgroup holds no monoid; its group holds the base and the cover
    assert monoids_held(p) == []
    held = monoids_held(p.group)
    assert any(m is first.monoid for m in held) and any(m is first.base for m in held)
    assert len(held) == len(calls)


def test_a_shared_dict_keeps_covers_of_equal_ranks_apart_by_group(monkeypatch):
    # equal rank vectors on two groups: each group keeps its own monoids
    mu = [F(1), F(1, 2), F(3, 4), F(1, 2)]
    c4 = validate_fuzzy(cyclic(4), mu)
    v4 = validate_fuzzy(klein_four(), mu)
    assert c4._rank == v4._rank == (2, 0, 1, 0)
    calls = count_validations(monkeypatch)
    covers = [build_cover(c4), build_cover(v4)]
    # each group's base, then its cover
    assert calls == [len(c4.chain), covers[0].n, len(v4.chain), covers[1].n]
    assert monoids_kept(c4.group)[("cover", c4._rank)] is covers[0].monoid
    assert monoids_kept(v4.group)[("cover", v4._rank)] is covers[1].monoid
    assert covers[0].monoid.table != covers[1].monoid.table
    assert covers[0].base == covers[1].base
    assert_cover_like_lone(covers[0], c4)
    assert_cover_like_lone(covers[1], v4)


# -- one facts dict and one plan per table, shared by its relabelings ------------

def count_plans(monkeypatch):
    """The tables `generator_plan` runs on, patched in every module that calls it."""
    calls = []
    real = search.generator_plan

    def counted(table, generators):
        calls.append(table)
        return real(table, generators)

    for name, module in list(sys.modules.items()):
        if name.startswith("fzcover") and getattr(module, "generator_plan", None) is real:
            monkeypatch.setattr(module, "generator_plan", counted)
    return calls


def test_relabelings_share_one_facts_dict_and_plan_once(monkeypatch):
    group = klein_four()
    a = validate_fuzzy(group, [F(1), F(1, 2), F(1, 4), F(1, 4)])
    b = validate_fuzzy(group, [F(1), F(2, 3), F(1, 3), F(1, 3)])
    assert a._rank == b._rank and a.chain != b.chain
    ca, cb = build_cover(a), build_cover(b)
    # cb's monoid is ca's under other names, and so is its sigma-quotient
    qa, qb = (c.monoid.derived.sigma_quotient for c in (ca, cb))
    assert cb.monoid.names != ca.monoid.names and qb.names != qa.names
    assert cb.monoid.facts is ca.monoid.facts and qb.facts is qa.facts
    assert qa.facts is not ca.monoid.facts and qa.facts is not group.facts
    calls = count_plans(monkeypatch)
    # one cover shape searched through both subgroups plans its table once
    homs = [enumerate_cover_morphisms(c.triple, ca.triple) for c in (ca, cb)]
    assert [(m.fstar, m.lam) for m in homs[0]] == [(m.fstar, m.lam) for m in homs[1]]
    assert calls == [ca.monoid.table]
    # and so do the quotient and its relabeling
    assert enumerate_group_homomorphisms(qa, group) == enumerate_group_homomorphisms(qb, group)
    assert calls == [ca.monoid.table, qa.table]


# -- one report and one round trip per shape, kept with the cover table ----------

def grid_groups():
    """Fresh group objects, whose grid-3 subgroups have 151 covers in all."""
    return [cyclic(n) for n in range(1, 9)] + [klein_four(), symmetric(3), dihedral(4)]


def round_trip(cover):
    return premorphism_from_cover(cover.monoid, cover.base, cover.projection)


def test_one_listing_reports_and_round_trips_each_shape_once(monkeypatch):
    reports, round_trips = [], []
    real_report, real_validate = cover_module.CoverReport, cover_module.validate_dual_premorphism

    def counted_report(**fields):
        reports.append(fields)
        return real_report(**fields)

    def counted_validate(group, monoid, psi):
        round_trips.append(psi)
        return real_validate(group, monoid, psi)

    monkeypatch.setattr(cover_module, "CoverReport", counted_report)
    monkeypatch.setattr(cover_module, "validate_dual_premorphism", counted_validate)
    listings = [enumerate_fuzzy_subgroups_filter(g, default_grid(3)) for g in grid_groups()]
    covers = [build_cover(fz) for listed in listings for fz in listed]
    by_shape = {}
    for cover in covers:
        by_shape.setdefault((cover.source.group, cover.source._rank), []).append(cover)
    assert len(by_shape) < len(covers)
    for _ in range(2):  # the second pass finds every shape kept
        for cover in covers:
            assert cover_report(cover).all_match
            round_trip(cover)
        assert len(reports) == len(round_trips) == len(by_shape)
    # covers of one shape share one facts dict, one entry per function
    for shaped in by_shape.values():
        facts = shaped[0].monoid.facts
        assert all(cover.monoid.facts is facts for cover in shaped)
        assert sorted(key[0] for key in facts) == ["report", "round trip"]


def test_kept_reports_and_round_trips_equal_fresh_ones():
    checked = 0
    for group in grid_groups():
        for fz in enumerate_fuzzy_subgroups_filter(group, default_grid(3)):
            cover = build_cover(fz)
            report, dp = cover_report(cover), round_trip(cover)
            fresh = build_cover(on_fresh_group(fz))
            assert not fresh.monoid.facts
            assert report == cover_report(fresh)
            fresh_dp = round_trip(fresh)
            assert dp == fresh_dp
            # over the cover's own quotient and base, names and all
            assert dp.group is cover.monoid.derived.sigma_quotient and dp.monoid is cover.base
            assert dp.group.names == fresh_dp.group.names
            assert dp.monoid.names == fresh_dp.monoid.names
            checked += 1
    assert checked == 151


@pytest.mark.parametrize("enumerate_", ENUMERATORS, ids=lambda f: f.__name__)
def test_enumerators_validate_each_listed_subgroup_once(enumerate_, monkeypatch):
    calls = []
    real = enumeration.validate_fuzzy

    def counting(group, mu, *rest):
        calls.append(tuple(mu))
        return real(group, mu, *rest)

    monkeypatch.setattr(enumeration, "validate_fuzzy", counting)
    for group in (cyclic(6), klein_four(), symmetric(3)):
        calls.clear()
        listed = enumerate_(group, default_grid(3))
        assert sorted(calls) == sorted(fz.mu for fz in listed)
