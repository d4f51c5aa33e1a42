from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fzcover import (
    as_dual_premorphism,
    cyclic,
    derived_facts,
    dihedral,
    enumerate_subgroup_chains,
    is_subgroup,
    klein_four,
    level_subset,
    symmetric,
    validate_fuzzy,
    validate_fuzzy_morphism,
)
from fzcover.errors import (
    AlgebraError,
    Axiom1Violation,
    Axiom2Violation,
    NotOrderPreserving,
    ValidationError,
    ValueNotInChain,
    ValueOutOfRange,
)
from fzcover.fuzzy import FuzzySubgroup
from tests.test_enumeration import S3_IDENTITY_LAST

F = Fraction


def oracle_axioms(group, mu):
    """Independent brute-force check of the two defining inequalities."""
    return all(
        mu[group.table[x][y]] >= min(mu[x], mu[y])
        for x in range(group.n)
        for y in range(group.n)
    ) and all(mu[group.inverses[x]] == mu[x] for x in range(group.n))


def test_running_example(fz_z2):
    assert fz_z2.chain == (F(1, 2), F(1))
    assert fz_z2.top == 1
    assert oracle_axioms(fz_z2.group, fz_z2.mu)


def test_v4_example(fz_v4):
    assert fz_v4.chain == (F(1, 4), F(1, 2), F(1))
    assert oracle_axioms(fz_v4.group, fz_v4.mu)
    # mu(b*c) = mu(a) = 1/2 >= min(1/4, 1/4)
    assert fz_v4.mu[fz_v4.group.table[2][3]] == F(1, 2)


def test_axiom1_violation(z2):
    with pytest.raises(Axiom1Violation) as exc:
        validate_fuzzy(z2, [F(1, 2), F(1)])
    assert exc.value.witness == (1, 1)


def test_axiom2_violation():
    z3 = cyclic(3)
    with pytest.raises(Axiom2Violation):
        validate_fuzzy(z3, [F(1), F(1, 2), F(1, 4)])


def test_value_out_of_range(z2):
    with pytest.raises(ValueOutOfRange):
        validate_fuzzy(z2, [F(3, 2), F(1, 2)])


def test_level_subsets(fz_z2):
    assert level_subset(fz_z2, F(1)) == {0}
    assert level_subset(fz_z2, F(1, 2)) == {0, 1}
    with pytest.raises(ValueNotInChain):
        level_subset(fz_z2, F(1, 3))


def test_level_at_chain_minimum_is_whole_group(fz_v4):
    assert level_subset(fz_v4, min(fz_v4.chain)) == set(range(4))


def test_levels_are_nested_subgroups(fz_z2, fz_v4):
    for fz in (fz_z2, fz_v4):
        chain = fz.chain
        for u, v in zip(chain, chain[1:]):
            assert level_subset(fz, v) <= level_subset(fz, u)
        for u in chain:
            assert is_subgroup(fz.group, level_subset(fz, u))


def test_mu_recovered_from_level_family(fz_z2, fz_v4):
    for fz in (fz_z2, fz_v4):
        for x in range(fz.n):
            assert fz.mu[x] == max(u for u in fz.chain if x in level_subset(fz, u))


def test_morphism_lambda_must_give_each_source_value_a_target_value(fz_z2):
    # too short, and one index past the target chain
    for lam in ((1,), (0, 2)):
        with pytest.raises(NotOrderPreserving, match="lam must assign"):
            validate_fuzzy_morphism(fz_z2, fz_z2, (0, 1), lam)


def test_derived_facts(fz_z2):
    facts = derived_facts(fz_z2)
    assert facts.unit_value == facts.max_value == 1
    assert facts.unit_dominates and facts.inverse_symmetric


def test_derived_facts_constant(v4):
    fz = validate_fuzzy(v4, [F(1, 3)] * 4)
    facts = derived_facts(fz)
    assert facts.unit_value == F(1, 3)
    assert facts.unit_dominates and facts.inverse_symmetric
    assert facts.level_sizes == ((F(1, 3), 4),)


def test_s3_example(s3):
    mu = []
    for name in s3.names:
        if name == "e":
            mu.append(F(1))
        elif len(name) == 5:  # 3-cycles like (012)
            mu.append(F(1, 2))
        else:
            mu.append(F(1, 4))
    fz = validate_fuzzy(s3, mu)
    assert oracle_axioms(s3, mu)
    assert level_subset(fz, F(1)) == {s3.index("e")}
    a3 = {s3.index("e"), s3.index("(012)"), s3.index("(021)")}
    assert level_subset(fz, F(1, 2)) == a3
    assert level_subset(fz, F(1, 4)) == set(range(6))


def test_dual_premorphism_running_example(fz_z2):
    dp = as_dual_premorphism(fz_z2)
    assert dp.monoid.n == 2
    assert dp.psi == (1, 0)
    above = dp.monoid.derived.above
    for u in range(dp.monoid.n):
        assert above[u] >> dp.psi[dp.coverage_witness[u]] & 1


def test_dual_premorphism_constant(z2):
    fz = validate_fuzzy(z2, [F(1), F(1)])
    dp = as_dual_premorphism(fz)
    assert dp.monoid.n == 1
    assert dp.psi == (0, 0)


def test_dual_premorphism_coverage_witnesses(fz_v4):
    dp = as_dual_premorphism(fz_v4)
    above = dp.monoid.derived.above
    for u in range(dp.monoid.n):
        h = dp.coverage_witness[u]
        assert above[u] >> dp.psi[h] & 1


# -- acceptance is an order property ------------------------------------------------

def accepts(group, mu):
    try:
        validate_fuzzy(group, mu)
        return True
    except ValidationError:
        return False


def test_acceptance_invariant_under_order_isomorphic_revaluation():
    z4 = cyclic(4)
    grid = [F(1, 4), F(1, 2), F(1)]
    regrid = [F(1, 10), F(9, 10), F(1)]
    for ranks in product(range(3), repeat=4):
        mu = [grid[r] for r in ranks]
        remapped = [regrid[r] for r in ranks]
        assert accepts(z4, mu) == accepts(z4, remapped)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    which=st.sampled_from(["z2", "z4", "v4", "s3"]),
    ranks=st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
    shift=st.integers(min_value=2, max_value=9),
)
def test_acceptance_invariant_randomized(which, ranks, shift):
    group = {"z2": cyclic(2), "z4": cyclic(4), "v4": klein_four(), "s3": symmetric(3)}[which]
    grid = [F(1, 4), F(1, 2), F(3, 4), F(1)]
    # squash the low levels toward zero: order-isomorphic revaluation
    regrid = [v / shift for v in grid[:-1]] + [F(1)]
    mu = [grid[r] for r in ranks[: group.n]]
    remapped = [regrid[r] for r in ranks[: group.n]]
    assert accepts(group, mu) == accepts(group, remapped)


def test_hash_is_computed_once(monkeypatch):
    mu = [F(1), F(1, 2), F(1, 4), F(1, 4)]
    fz = validate_fuzzy(klein_four(), mu)
    twin = validate_fuzzy(klein_four(), mu)
    assert hash(twin) == hash(fz) and twin == fz
    before = hash(fz)
    # a later hash reads no membership value and no group table
    monkeypatch.setattr(Fraction, "__hash__", None)
    monkeypatch.setattr(fz, "group", None)
    assert hash(fz) == before


# -- the rank-based validator against the definition ---------------------------------

def validate_fuzzy_by_definition(group, mu):
    """Oracle: both axioms checked on the Fraction values themselves."""
    n = group.n
    if len(mu) != n:
        raise ValueOutOfRange(f"mu must assign a value to each of {n} elements")
    values = [Fraction(v) for v in mu]
    for x, v in enumerate(values):
        if not 0 <= v <= 1:
            raise ValueOutOfRange(
                f"mu({group.names[x]}) = {v} outside [0, 1]", witness=x
            )
    for x in range(n):
        if values[group.inverses[x]] != values[x]:
            raise Axiom2Violation(
                f"mu({group.names[x]}^-1) = {values[group.inverses[x]]} "
                f"!= mu({group.names[x]}) = {values[x]}",
                witness=x,
            )
        for y in range(n):
            bound = min(values[x], values[y])
            if values[group.table[x][y]] < bound:
                raise Axiom1Violation(
                    f"mu({group.names[x]}*{group.names[y]}) = "
                    f"{values[group.table[x][y]]} < min bound {bound}",
                    witness=(x, y),
                )
    chain = tuple(sorted(set(values)))
    fz = FuzzySubgroup(group, values, chain, [chain.index(v) for v in values])
    # mu(e) dominating every value is a consequence of the axioms
    if fz.mu[group.identity] != fz.top:
        raise AlgebraError(f"mu(identity) = {fz.mu[group.identity]} is not the top {fz.top}")
    return fz


VALIDATION_GROUPS = [cyclic(n) for n in range(1, 9)] + [
    klein_four(),
    symmetric(3),
    dihedral(4),
    S3_IDENTITY_LAST,
]
VALIDATION_CHAINS = [enumerate_subgroup_chains(g) for g in VALIDATION_GROUPS]
IN_RANGE = [F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]
# out-of-range values, and values Fraction() converts: an int and a string
VALUES = [F(-1, 2), *IN_RANGE, F(3, 2), 1, "1/3"]


@st.composite
def assignments(draw):
    """A group and an assignment: level-built (so valid) or drawn value by
    value, then with one value replaced half of the time."""
    which = draw(st.integers(min_value=0, max_value=len(VALIDATION_GROUPS) - 1))
    group = VALIDATION_GROUPS[which]
    n = group.n
    if draw(st.booleans()):
        chain = draw(st.sampled_from(VALIDATION_CHAINS[which]))
        levels = sorted(
            draw(st.lists(st.sampled_from(IN_RANGE), min_size=len(chain),
                          max_size=len(chain), unique=True))
        )
        mu = [None] * n
        for depth, sub in enumerate(chain):
            for x in sub:
                mu[x] = levels[depth]
    else:
        mu = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    if draw(st.booleans()):
        mu[draw(st.integers(min_value=0, max_value=n - 1))] = draw(st.sampled_from(VALUES))
    return which, mu


def outcome(validate, group, mu):
    try:
        fz = validate(group, mu)
    except AlgebraError as exc:
        return type(exc), exc.witness, str(exc)
    return fz.mu, fz.chain, fz.top


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=assignments())
@example(case=(9, [F(1), F(1, 4), F(1, 4), F(1, 2), F(1, 2), F(1, 4)]))  # valid S3
@example(case=(2, [F(1), F(1, 2), F(1, 4)]))  # C3: mu(g^-1) != mu(g)
@example(case=(1, [F(1, 2), F(1)]))  # C2: mu(g*g) < mu(g)
@example(case=(3, [F(1), F(3, 2), F(1, 2), F(3, 2)]))  # C4: out of range
@example(case=(0, [F(1), F(1)]))  # wrong length
def test_validate_fuzzy_matches_definition(case):
    which, mu = case
    group = VALIDATION_GROUPS[which]
    assert outcome(validate_fuzzy, group, mu) == outcome(
        validate_fuzzy_by_definition, group, mu
    )
