from fractions import Fraction

import pytest

from fzcover import (
    ValueGrid,
    all_subgroups,
    cyclic,
    default_grid,
    embed_object,
    enumerate_cover_morphisms,
    enumerate_fuzzy_morphisms,
    enumerate_fuzzy_subgroups_chain,
    enumerate_fuzzy_subgroups_filter,
    enumerate_subgroup_chains,
    klein_four,
    symmetric,
    validate_fuzzy,
    validate_group,
)
from fzcover.errors import BudgetExceeded, ValidationError

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
    from itertools import product as iproduct

    from fzcover import validate_cover_morphism
    from fzcover.errors import ValidationError

    out = []
    for lam in iproduct(range(o2.base.n), repeat=o1.base.n):
        for fstar in iproduct(range(o2.monoid.n), repeat=o1.monoid.n):
            try:
                out.append(validate_cover_morphism(o1, o2, fstar, lam))
            except ValidationError:
                pass
    return out


def test_cover_morphism_enumeration_is_complete(fz_z2, fz_z2_const, v4):
    small_v4 = validate_fuzzy(v4, [F(1), F(1), F(1, 2), F(1, 2)])
    objects = [embed_object(fz) for fz in (fz_z2, fz_z2_const, small_v4)]
    for o1 in objects:
        for o2 in objects:
            smart = enumerate_cover_morphisms(o1, o2)
            oracle = brute_force_cover_morphisms(o1, o2)
            assert sorted((m.lam, m.fstar) for m in smart) == sorted(
                (m.lam, m.fstar) for m in oracle
            )


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


def test_budget_guards(v4, s3):
    with pytest.raises(BudgetExceeded):
        enumerate_fuzzy_subgroups_filter(s3, default_grid(4), budget=100)
    with pytest.raises(BudgetExceeded):
        enumerate_fuzzy_subgroups_chain(v4, default_grid(4), budget=3)
    with pytest.raises(BudgetExceeded):
        all_subgroups(symmetric(3), budget=10)


def test_budget_message_counts_candidates(z2):
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_fuzzy_subgroups_filter(z2, default_grid(4), budget=15)
    assert str(exc.value) == "16 candidate assignments exceed budget 15"
