import importlib
import inspect
import random
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import fzcover.cover as cover_module
from fzcover import (
    as_dual_premorphism,
    build_cover,
    chain_monoid,
    compose_cover_morphisms,
    cover_from_premorphism,
    cover_report,
    cyclic,
    default_grid,
    dihedral,
    enumerate_fuzzy_subgroups_filter,
    green_relations,
    hclass_level_isomorphism,
    identity_cover_morphism,
    klein_four,
    level_subset,
    monoid_isomorphic,
    parse_workspace,
    premorphism_from_cover,
    sigma,
    symmetric,
    validate_dual_premorphism,
    validate_fuzzy,
    validate_group,
    validate_inverse_monoid,
)
from fzcover.errors import (
    AlgebraError,
    BudgetExceeded,
    CoverageFailure,
    NotAssociative,
    NotComposable,
    NotDualPremorphism,
    NotFInverse,
    NotHomomorphism,
    NotIdempotentSeparating,
    NotSurjective,
    ReconstructionMismatch,
    ValidationError,
    ValueNotInChain,
)
from fzcover.groups import FiniteGroup
from fzcover.monoids import DerivedStructure, _derive, check_projection
from tests.test_derivation import fuzzy_subgroups
from tests.test_monoids import group_as_monoid, symmetric_inverse_monoid_2

F = Fraction


def test_running_cover_structure(fz_z2):
    cover = build_cover(fz_z2)
    assert cover.n == 3
    assert set(cover.monoid.names) == {"(1/2,e)", "(1,e)", "(1/2,a)"}
    assert cover.monoid.names[cover.monoid.unit] == "(1,e)"


def test_v4_cover_size(fz_v4):
    cover = build_cover(fz_v4)
    assert cover.n == 7
    per_element = [sum(1 for u, x in cover.pairs if x == g) for g in range(4)]
    assert per_element == [3, 2, 1, 1]


def test_size_identity(fz_z2, fz_v4, s3):
    mu = [F(1) if n == "e" else F(1, 2) if len(n) == 5 else F(1, 4) for n in s3.names]
    for fz in (fz_z2, fz_v4, validate_fuzzy(s3, mu)):
        cover = build_cover(fz)
        assert cover.n == sum(
            sum(1 for u in fz.chain if u <= fz.mu[x]) for x in range(fz.n)
        )


def test_constant_cover_is_the_group(z2):
    fz = validate_fuzzy(z2, [F(1), F(1)])
    cover = build_cover(fz)
    assert cover.monoid.table == z2.table
    assert monoid_isomorphic(cover.monoid, group_as_monoid(z2)) == (0, 1)


def test_cover_report_running_example(fz_z2):
    report = cover_report(build_cover(fz_z2))
    assert report.all_match
    assert report.unit == (1, 0)
    assert report.idempotents == ((0, 0), (1, 0))
    assert report.sigma_maxima == ((1, 0), (0, 1))


def test_cover_report_constant_and_trivial(z2):
    report = cover_report(build_cover(validate_fuzzy(z2, [F(1), F(1)])))
    assert report.all_match
    assert report.idempotents == ((0, 0),)
    assert len(report.sigma_classes) == 2  # singleton classes, one per element

    trivial = validate_fuzzy(cyclic(1), [F(1)])
    report = cover_report(build_cover(trivial))
    assert report.all_match
    assert report.sigma_classes == (((0, 0),),)


def test_quotient_recovers_the_group(fz_z2, fz_v4):
    for fz in (fz_z2, fz_v4):
        cover = build_cover(fz)
        _, quotient, proj = sigma(cover.monoid)
        # class of (mu(x), x) is indexed by x itself, and the table transports
        assert quotient.table == fz.group.table
        for x in range(fz.n):
            assert proj[cover.pair_index[(fz.mu_index(x), x)]] == x


def test_hclass_level_isomorphism_running_example(fz_z2):
    cover = build_cover(fz_z2)
    low = hclass_level_isomorphism(cover, F(1, 2))
    assert sorted(low.values()) == [0, 1]
    assert set(low) == {cover.pair_index[(0, 0)], cover.pair_index[(0, 1)]}
    top = hclass_level_isomorphism(cover, F(1))
    assert top == {cover.pair_index[(1, 0)]: 0}
    with pytest.raises(ValueNotInChain):
        hclass_level_isomorphism(cover, F(1, 3))


def test_hclass_level_isomorphism_each_level(fz_v4):
    cover = build_cover(fz_v4)
    for u in fz_v4.chain:
        mapping = hclass_level_isomorphism(cover, u)
        assert set(mapping.values()) == set(level_subset(fz_v4, u))


def test_hclass_at_top_is_top_level_subgroup(v4):
    fz = validate_fuzzy(v4, [F(1), F(1), F(1, 2), F(1, 2)])
    cover = build_cover(fz)
    mapping = hclass_level_isomorphism(cover, F(1))
    assert set(mapping.values()) == {0, 1} == set(level_subset(fz, F(1)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fuzzy_subgroups())
def test_every_closed_form_of_the_report_matches(fz):
    assert cover_report(build_cover(fz)).all_match


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fuzzy_subgroups())
def test_each_level_hclass_maps_onto_its_level_subset_bijectively(fz):
    cover = build_cover(fz)
    for u in fz.chain:
        mapping = hclass_level_isomorphism(cover, u)
        images = sorted(mapping.values())
        assert images == sorted(level_subset(fz, u)) and len(set(images)) == len(images)
        # each member of the class is the pair of u over its image
        assert all(cover.pairs[i] == (fz.chain_index(u), x) for i, x in mapping.items())


# -- the general pair construction ------------------------------------------------

def test_cover_morphisms_compose_only_end_to_end(fz_z2, fz_v4):
    first = identity_cover_morphism(build_cover(fz_z2).triple)
    second = identity_cover_morphism(build_cover(fz_v4).triple)
    with pytest.raises(NotComposable):
        compose_cover_morphisms(second, first)


def test_construction_matches_fuzzy_cover(fz_z2, fz_v4):
    for fz in (fz_z2, fz_v4):
        psi = as_dual_premorphism(fz)
        built, direct = cover_from_premorphism(psi), build_cover(fz)
        assert built.source is psi and direct.source is fz
        assert built.triple == direct.triple
        assert built.pairs == direct.pairs


def test_fuzzy_readers_refuse_a_constructed_cover(fz_z2):
    # the same pairs and triple as build_cover's, but built from a dual
    # premorphism, which has no chain or ranks to read the closed forms from
    built = cover_from_premorphism(as_dual_premorphism(fz_z2))
    for read, name in (
        (cover_report, "cover_report"),
        (lambda c: hclass_level_isomorphism(c, F(1)), "hclass_level_isomorphism"),
    ):
        with pytest.raises(ValidationError, match=f"{name} needs a cover from build_cover"):
            read(built)
    direct = build_cover(fz_z2)
    assert cover_report(direct).all_match
    assert hclass_level_isomorphism(direct, F(1)) == {direct.pair_index[(1, 0)]: 0}


def test_construction_trivial():
    dp = validate_dual_premorphism(cyclic(1), chain_monoid([F(1)]), (0,))
    built = cover_from_premorphism(dp)
    assert built.n == 1


def test_construction_accepts_general_monoid_targets():
    # a group homomorphism is a dual premorphism; covers of a group by itself
    z2 = cyclic(2)
    m = group_as_monoid(z2)
    dp = validate_dual_premorphism(z2, m, (0, 1))
    built = cover_from_premorphism(dp)
    assert built.n == 2
    assert monoid_isomorphic(built.monoid, m) is not None


def test_psi_to_top_has_coverage():
    # every chain value sits below the top, so psi == top satisfies coverage
    # and yields the full product cover
    z2 = cyclic(2)
    dp = validate_dual_premorphism(z2, chain_monoid([F(1, 2), F(1)]), (1, 1))
    built = cover_from_premorphism(dp)
    assert built.n == 4


def test_genuine_coverage_failure():
    # in the symmetric inverse monoid, a non-idempotent is below no identity map
    sim = symmetric_inverse_monoid_2()
    trivial = cyclic(1)
    with pytest.raises(CoverageFailure):
        validate_dual_premorphism(trivial, sim, (sim.index("id"),))


def test_not_dual_premorphism():
    z2 = cyclic(2)
    chain = chain_monoid([F(1, 2), F(1)])
    # psi(a*a) = psi(e) = 1/2 is not above psi(a) ^ psi(a) = 1
    with pytest.raises(NotDualPremorphism):
        validate_dual_premorphism(z2, chain, (0, 1))


# -- recovering the premorphism from a cover ---------------------------------------

def test_roundtrip_recovers_mu(fz_z2, fz_v4):
    for fz in (fz_z2, fz_v4):
        cover = build_cover(fz)
        dp = premorphism_from_cover(cover.monoid, cover.base, cover.projection)
        assert dp.psi == tuple(fz.mu_index(x) for x in range(fz.n))
        assert dp.group.table == fz.group.table


def test_large_cover_round_trip():
    # C500 over the chain {e} < 2*C500 < C500: 3 + 2*249 + 250 = 751 pairs
    fz = validate_fuzzy(
        cyclic(500),
        [F(1) if x == 0 else F(1, 2) if x % 2 == 0 else F(1, 4) for x in range(500)],
    )
    cover = build_cover(fz)
    assert cover.n == 751
    assert cover_report(cover).all_match
    dp = premorphism_from_cover(cover.monoid, cover.base, cover.projection)
    assert dp.group.table == fz.group.table
    assert dp.psi == tuple(fz.mu_index(x) for x in range(fz.n))
    assert round_trip_by_search(cover.monoid, cover.base, cover.projection) == dp


def test_roundtrip_group_over_trivial_monoid():
    z3 = group_as_monoid(cyclic(3))
    trivial = chain_monoid([F(1)])
    dp = premorphism_from_cover(z3, trivial, (0, 0, 0))
    assert dp.psi == (0, 0, 0)
    rebuilt = cover_from_premorphism(dp)
    assert monoid_isomorphic(rebuilt.monoid, z3) is not None


def test_roundtrip_rejects_bad_projections():
    sim = symmetric_inverse_monoid_2()
    with pytest.raises(NotFInverse):
        premorphism_from_cover(sim, sim, tuple(range(sim.n)))

    two = chain_monoid([F(1, 2), F(1)])
    one = chain_monoid([F(1)])
    with pytest.raises(NotSurjective):
        premorphism_from_cover(two, two, (1, 1))
    with pytest.raises(NotIdempotentSeparating):
        premorphism_from_cover(two, one, (0, 0))
    with pytest.raises(NotHomomorphism):
        premorphism_from_cover(two, two, (1, 0))


# -- the former round trip, by rebuilding and searching, as an oracle ----------------

def round_trip_by_search(monoid, base, projection):
    """The dual premorphism of the cover if the validated rebuilt pair monoid
    is isomorphic to it by exhaustive search, else None.

    psi is certified through ``fzcover.cover``'s own name for the validator,
    so a planted validator reaches both round trips.
    """
    check_projection(monoid, base, projection)
    d = monoid.derived
    psi = tuple(projection[m] for m in d.sigma_maxima)
    dp = cover_module.validate_dual_premorphism(d.sigma_quotient, base, psi)
    rebuilt = cover_from_premorphism(dp)
    return dp if monoid_isomorphic(rebuilt.monoid, monoid) is not None else None


def rejects(round_trip, cover) -> bool:
    try:
        return round_trip(cover.monoid, cover.base, cover.projection) is None
    except AlgebraError:
        return True


def test_canonical_round_trip_agrees_with_search():
    grid = default_grid(3)
    groups = [cyclic(n) for n in range(1, 9)] + [klein_four(), symmetric(3), dihedral(4)]
    checked = 0
    for group in groups:
        for fz in enumerate_fuzzy_subgroups_filter(group, grid):
            cover = build_cover(fz)
            args = (cover.monoid, cover.base, cover.projection)
            assert premorphism_from_cover(*args) == round_trip_by_search(*args)
            checked += 1
    assert checked == 151


def on_fresh_group(fz):
    """``fz`` over a freshly validated copy of its group.

    Its cover shares no monoid, and so no kept report or round trip, with a
    cover built before: a planted fault reaches every check.
    """
    group = fz.group
    return validate_fuzzy(validate_group(group.names, group.table), fz.mu)


@pytest.fixture
def constant_psi(monkeypatch):
    """Plant psi = unit everywhere: certified, but its pair monoid is too big."""
    real = cover_module.validate_dual_premorphism
    monkeypatch.setattr(
        cover_module,
        "validate_dual_premorphism",
        lambda group, monoid, psi: real(group, monoid, (monoid.unit,) * group.n),
    )


def test_planted_wrong_psi_is_rejected_by_both(fz_z2, fz_v4, constant_psi):
    for fz in map(on_fresh_group, (fz_z2, fz_v4)):
        cover = build_cover(fz)
        assert rejects(round_trip_by_search, cover)
        with pytest.raises(ReconstructionMismatch):
            premorphism_from_cover(cover.monoid, cover.base, cover.projection)


def plant_wrong_product(monkeypatch, cover):
    """Move one product of the quotient that the generator columns read to the identity.

    psi is certified as before, but its group table gets (a, sigma(g)) -> e for
    the first generator g of the cover and the first class a != e with
    a*sigma(g) != e.  The pairs depend on psi alone, so the canonical map is
    still a bijection that keeps the unit; each pair product with the
    identity in it is admissible, so the pair set stays closed, and only the
    product check can catch the fault.  Returns the row that must be named:
    the first t with sigma(t) = a.
    """
    d = cover.monoid.derived
    q = d.sigma_quotient
    b = d.sigma.class_of[cover.monoid.generators[0]]
    a = next(a for a in range(q.n) if a != q.identity and q.table[a][b] != q.identity)
    table = [list(row) for row in q.table]
    table[a][b] = q.identity
    wrong = FiniteGroup(q.names, tuple(map(tuple, table)), q.identity, q.inverses, q.generators)
    real = cover_module.validate_dual_premorphism
    monkeypatch.setattr(
        cover_module,
        "validate_dual_premorphism",
        lambda group, monoid, psi: replace(real(group, monoid, psi), group=wrong),
    )
    return d.sigma.class_of.index(a)


def test_planted_wrong_product_is_named_by_its_row(fz_v4, monkeypatch):
    # one product that the generator columns read is moved: the canonical map
    # is still a bijection that keeps the unit, so only the product check can
    # catch it, and the full row scan it falls back to names the first bad row
    cover = build_cover(on_fresh_group(fz_v4))
    row = plant_wrong_product(monkeypatch, cover)
    assert rejects(round_trip_by_search, cover)
    with pytest.raises(ReconstructionMismatch) as exc:
        premorphism_from_cover(cover.monoid, cover.base, cover.projection)
    assert exc.value.witness == row
    # the first failing row, not the first row: the fault is past row 0
    assert row > 0


def test_calls_that_raise_keep_nothing(fz_v4, monkeypatch):
    cover = build_cover(on_fresh_group(fz_v4))
    args = (cover.monoid, cover.base, cover.projection)
    facts = cover.monoid.facts
    with monkeypatch.context() as patch:
        plant_wrong_product(patch, cover)
        with pytest.raises(ReconstructionMismatch):
            premorphism_from_cover(*args)
    with pytest.raises(NotHomomorphism):
        premorphism_from_cover(cover.monoid, cover.base, (0,) * (cover.n - 1) + (1,))
    constructed = cover_from_premorphism(as_dual_premorphism(fz_v4))
    with pytest.raises(ValidationError):
        cover_report(constructed)
    assert facts == {} and constructed.monoid.facts == {}
    # the first call that passes keeps its result, and the next reads it
    dp = premorphism_from_cover(*args)
    assert list(facts.values()) == [(dp.psi, dp.coverage_witness)]
    assert premorphism_from_cover(*args) == dp


def test_round_trip_builds_the_pair_table_only_on_failure(fz_v4, monkeypatch):
    real = cover_module._pair_table
    calls = []

    def counted(psi):
        calls.append(psi)
        return real(psi)

    monkeypatch.setattr(cover_module, "_pair_table", counted)
    for fz in enumerate_fuzzy_subgroups_filter(klein_four(), default_grid(3)):
        cover = build_cover(fz)
        premorphism_from_cover(cover.monoid, cover.base, cover.projection)
    assert calls == []
    cover = build_cover(on_fresh_group(fz_v4))
    plant_wrong_product(monkeypatch, cover)
    with pytest.raises(ReconstructionMismatch):
        premorphism_from_cover(cover.monoid, cover.base, cover.projection)
    assert len(calls) == 1


# -- isomorphism search --------------------------------------------------------------

def test_isomorphic_to_itself_is_identity(fz_z2):
    m = build_cover(fz_z2).monoid
    assert monoid_isomorphic(m, m) == tuple(range(m.n))


def test_chain_not_isomorphic_to_group():
    two = chain_monoid([F(1, 2), F(1)])
    z2 = group_as_monoid(cyclic(2))
    assert monoid_isomorphic(two, z2) is None


def relabeled_monoid(m, perm):
    """The same monoid with element i of ``m`` listed as element perm[i]."""
    inv = [perm.index(i) for i in range(m.n)]
    table = [[perm[m.table[inv[i]][inv[j]]] for j in range(m.n)] for i in range(m.n)]
    return validate_inverse_monoid([m.names[inv[i]] for i in range(m.n)], table, perm[m.unit])


def test_relabeled_cover_is_isomorphic(fz_z2):
    rng = random.Random(0)
    monoids = [build_cover(fz_z2).monoid]
    for fz in enumerate_fuzzy_subgroups_filter(dihedral(4), default_grid(3)):
        monoids.append(build_cover(fz).monoid)
    assert len(monoids) == 46
    for i, m in enumerate(monoids):
        perm = [2, 0, 1] if i == 0 else rng.sample(range(m.n), m.n)
        relabeled = relabeled_monoid(m, perm)
        bij = monoid_isomorphic(m, relabeled)
        assert bij is not None and sorted(bij) == list(range(m.n)), i
        assert bij[m.unit] == relabeled.unit
        for x in range(m.n):
            for y in range(m.n):
                assert bij[m.table[x][y]] == relabeled.table[bij[x]][bij[y]]


def test_isomorphism_budget():
    mu = [F(1) if i == 0 else F(1, 2) for i in range(4)]
    m = build_cover(validate_fuzzy(cyclic(4), mu)).monoid
    with pytest.raises(BudgetExceeded):
        monoid_isomorphic(m, m, budget=2)


def test_isomorphism_search_is_not_bounded_by_the_stack():
    # mu(x) rises with the power of 2 dividing x: a 120-element cover of C64
    levels = (F(1, 4), F(1, 2), F(3, 4), F(1))
    mu = [levels[sum(x % d == 0 for d in (2, 4, 8))] for x in range(64)]
    m = build_cover(validate_fuzzy(cyclic(64), mu)).monoid
    assert m.n >= 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        assert monoid_isomorphic(m, m) == tuple(range(m.n))
    finally:
        sys.setrecursionlimit(limit)


def test_forward_direction_on_many_instances(v4, s3):
    from fzcover import default_grid, enumerate_fuzzy_subgroups_filter

    grid = default_grid(3)
    for group in (cyclic(2), cyclic(3), v4):
        for fz in enumerate_fuzzy_subgroups_filter(group, grid):
            cover = build_cover(fz)
            assert cover.monoid.derived.f_inverse
            assert cover.monoid.derived.clifford
            assert cover_report(cover).all_match
            h, r, _ = green_relations(cover.monoid)
            assert h == r


# -- the cover built from the theorem, against full validation as its oracle ------

ORACLE_GROUPS = {
    **{f"C{n}": cyclic(n) for n in range(1, 9)},
    "V4": klein_four(),
    "S3": symmetric(3),
    "D8": dihedral(4),
}


def assert_built_as_validated(monoid):
    """The full validation of the monoid's table accepts it and derives alike.

    Raises what `validate_inverse_monoid` raises on a table that is no
    inverse monoid, and AssertionError on a field that differs.
    """
    validated = validate_inverse_monoid(monoid.names, monoid.table, monoid.unit)
    assert monoid.inverse == validated.inverse
    assert monoid.generators == validated.generators
    for field in fields(DerivedStructure):
        assert getattr(monoid.derived, field.name) == getattr(validated.derived, field.name), (
            field.name
        )


def built_monoids(subgroups):
    """The distinct cover monoids `build_cover` makes of the subgroups: a
    relabeling of a kept one shares its table, inverses and structure."""
    kept = {}
    for fz in subgroups:
        monoid = build_cover(fz).monoid
        kept.setdefault(id(monoid.table), monoid)
    return list(kept.values())


def bench_subgroups(monkeypatch, workload):
    """The fuzzy subgroups of the bench's seed-1 workspace of a workload.

    The bench's input module is imported read-only, with no bytecode written.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    inputs = importlib.import_module("inputs")
    return list(parse_workspace(inputs.MAKERS[workload](1)["workspace"]).fuzzies.values())


@pytest.mark.parametrize("group", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS)
def test_each_cover_of_a_grid_listing_passes_full_validation(group):
    for k in range(1, 5):
        for monoid in built_monoids(enumerate_fuzzy_subgroups_filter(group, default_grid(k))):
            assert_built_as_validated(monoid)


@pytest.mark.parametrize("workload", ["cover-ladder", "certify-pool"])
def test_each_cover_of_a_bench_workspace_passes_full_validation(workload, monkeypatch):
    subgroups = bench_subgroups(monkeypatch, workload)
    monoids = built_monoids(subgroups)
    assert len(monoids) > 10
    for monoid in monoids:
        assert_built_as_validated(monoid)


def test_the_three_level_c100_cover_passes_full_validation():
    fz = validate_fuzzy(
        cyclic(100),
        [F(1) if x == 0 else F(1, 2) if x % 2 == 0 else F(1, 4) for x in range(100)],
    )
    (monoid,) = built_monoids([fz])
    assert monoid.n == 151
    assert_built_as_validated(monoid)


def test_a_planted_wrong_entry_passes_the_build_and_fails_the_oracle(monkeypatch):
    # (1/4,g)*(1/4,g) is moved from (1/4,g2) to (1/4,g3), a pair of the same
    # rank: the projection, F-inverse and Clifford checks of the build still
    # pass, so only the full validation of the table refuses it
    fz = validate_fuzzy(cyclic(4), [F(1), F(1, 4), F(1, 2), F(1, 4)])
    real = cover_module.FiniteInverseMonoid
    pairs = build_cover(on_fresh_group(fz)).pairs
    g, g2, g3 = (pairs.index((0, x)) for x in (1, 2, 3))

    def planted(names, table, unit, inverse, derived, generators, facts):
        rows = list(table)
        assert rows[g][g] == g2
        rows[g] = rows[g][:g] + (g3,) + rows[g][g + 1:]
        rows = tuple(rows)
        return real(names, rows, unit, inverse, _derive(rows, inverse), generators, facts)

    monkeypatch.setattr(cover_module, "FiniteInverseMonoid", planted)
    (monoid,) = built_monoids([on_fresh_group(fz)])
    assert monoid.table[g][g] == g3
    with pytest.raises(NotAssociative):
        assert_built_as_validated(monoid)
