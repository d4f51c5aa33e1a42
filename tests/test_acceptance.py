"""Acceptance suite: one test per criterion, every check exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v`` to see one pass/fail line per
criterion; each test also prints its own PASS line (visible with ``-s``).
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import fzcover
from fzcover import (
    build_cover,
    chain_monoid,
    cover_from_premorphism,
    cover_report,
    cyclic,
    default_grid,
    dihedral,
    embed_object,
    enumerate_fuzzy_subgroups_chain,
    enumerate_fuzzy_subgroups_filter,
    hclass_level_isomorphism,
    is_idempotent_separating,
    is_monoid_homomorphism,
    is_subgroup,
    is_surjective,
    klein_four,
    level_subset,
    monoid_isomorphic,
    premorphism_from_cover,
    symmetric,
    validate_fuzzy,
    validate_group,
    verify_embedding,
)

F = Fraction
WORKSPACES = Path(__file__).resolve().parent.parent / "workspaces"


def _z2():
    return validate_group(["e", "a"], [[0, 1], [1, 0]])


@pytest.fixture(scope="module")
def corpus():
    """Every fuzzy subgroup over the five acceptance groups, default grid."""
    grid = default_grid(4)
    out = []
    for group in (_z2(), cyclic(3), cyclic(4), klein_four(), symmetric(3)):
        out.extend(enumerate_fuzzy_subgroups_filter(group, grid))
    return out


@pytest.fixture(scope="module")
def covers(corpus):
    return [build_cover(fz) for fz in corpus]


def test_criterion_1_cover_structure(covers):
    assert len(covers) == 130
    for cover in covers:
        monoid = cover.monoid  # already passed inverse-monoid validation
        assert monoid.derived.f_inverse
        assert monoid.derived.clifford
        assert is_monoid_homomorphism(cover.projection, monoid, cover.base)
        assert is_surjective(cover.projection, monoid, cover.base)
        assert is_idempotent_separating(cover.projection, monoid, cover.base)
        report = cover_report(cover)
        assert report.unit_match
        assert report.idempotents_match
        assert report.order_match
        assert report.sigma_match
        assert report.maxima_match
    print(f"ACCEPTANCE 1 (cover structure, {len(covers)} instances): PASS")


def test_criterion_2_level_hclass(covers):
    checked = 0
    for cover in covers:
        fz = cover.source
        for u in fz.chain:
            uidx = fz.chain_index(u)
            mapping = hclass_level_isomorphism(cover, u)
            assert set(mapping) == {
                cover.pair_index[(uidx, h)]
                for h in range(fz.n)
                if fz.mu[h] >= u
            }
            level = level_subset(fz, u)
            assert is_subgroup(fz.group, level)
            assert set(mapping.values()) == set(level)
            checked += 1
    print(f"ACCEPTANCE 2 (level/H-class, {checked} levels): PASS")


def test_criterion_3_enumeration_cross_validation():
    groups = [
        _z2(),
        cyclic(3),
        cyclic(4),
        cyclic(5),
        cyclic(6),
        cyclic(7),
        cyclic(8),
        klein_four(),
        symmetric(3),
        dihedral(4),
    ]
    for group in groups:
        assert group.n <= 8
        for k in range(1, 5):
            grid = default_grid(k)
            by_filter = enumerate_fuzzy_subgroups_filter(group, grid)
            by_chain = enumerate_fuzzy_subgroups_chain(group, grid)
            assert [fz.mu for fz in by_filter] == [fz.mu for fz in by_chain]
    assert len(enumerate_fuzzy_subgroups_filter(_z2(), default_grid(2))) == 3
    print("ACCEPTANCE 3 (enumeration cross-validation, 10 groups x 4 grids): PASS")


def test_criterion_4_premorphism_round_trip(covers):
    for cover in covers:
        fz = cover.source
        dp = premorphism_from_cover(cover.monoid, cover.base, cover.projection)
        # quotient classes are indexed like the group elements themselves
        assert dp.group.table == fz.group.table
        assert dp.psi == tuple(fz.mu_index(x) for x in range(fz.n))

    from tests.test_monoids import group_as_monoid

    z2_cover = build_cover(validate_fuzzy(_z2(), [F(1), F(1, 2)]))
    v4_cover = build_cover(
        validate_fuzzy(klein_four(), [F(1), F(1, 2), F(1, 4), F(1, 4)])
    )
    three_chain = chain_monoid([F(1, 4), F(1, 2), F(1)])
    hand_picked = [
        (z2_cover.monoid, z2_cover.base, z2_cover.projection),
        (v4_cover.monoid, v4_cover.base, v4_cover.projection),
        (group_as_monoid(cyclic(3)), chain_monoid([F(1)]), (0, 0, 0)),
        (three_chain, three_chain, (0, 1, 2)),
    ]
    for monoid, base, projection in hand_picked:
        dp = premorphism_from_cover(monoid, base, projection)
        rebuilt = cover_from_premorphism(dp)
        assert monoid_isomorphic(rebuilt.monoid, monoid) is not None
    print(
        f"ACCEPTANCE 4 (round trip, {len(covers)} instances + "
        f"{len(hand_picked)} hand-picked): PASS"
    )


def test_criterion_5_embedding_suite():
    grid = default_grid(4)
    pool = enumerate_fuzzy_subgroups_filter(_z2(), grid)
    pool += enumerate_fuzzy_subgroups_filter(klein_four(), grid)
    assert len(pool) == 50
    cache: dict = {}
    pairs = 0
    for f1 in pool:
        for f2 in pool:
            cert = verify_embedding(f1, f2, hom_cache=cache)
            assert cert.identity_ok
            assert cert.composition_ok
            assert cert.counts_equal
            assert cert.faithful and cert.full
            assert cert.roundtrip_ok
            assert cert.ok, cert.counterexample
            pairs += 1
    print(f"ACCEPTANCE 5 (embedding, {pairs} ordered pairs): PASS")


def test_criterion_6_chain_map_equivalence():
    levels = default_grid(4).levels
    chains = [c for r in range(1, 5) for c in combinations(levels, r)]
    monoids = {c: chain_monoid(c) for c in chains}
    checked = 0
    for cu in chains:
        for cv in chains:
            mu, mv = monoids[cu], monoids[cv]
            for f in product(range(len(cv)), repeat=len(cu)):
                monotone = all(f[i] <= f[i + 1] for i in range(len(cu) - 1))
                top_preserving = f[-1] == len(cv) - 1
                assert (monotone and top_preserving) == is_monoid_homomorphism(
                    f, mu, mv
                )
                checked += 1
    print(f"ACCEPTANCE 6 (chain-map equivalence, {checked} maps): PASS")


def _run_cli(*argv):
    # the child process imports the same fzcover as this test, however found
    src = str(Path(fzcover.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "fzcover.cli", *argv],
        capture_output=True,
        cwd=WORKSPACES.parent,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_7_cli_determinism_and_exit_codes():
    cover_args = (
        "cover",
        str(WORKSPACES / "v4.fzw"),
        "--report",
        "sigma,green,levels,order,table",
    )
    embed_args = ("embed", str(WORKSPACES / "z2.fzw"), str(WORKSPACES / "v4.fzw"))
    for args in (cover_args, embed_args):
        for mode in ((), ("--format", "machine")):
            first = _run_cli(*args, *mode)
            second = _run_cli(*args, *mode)
            assert first == second
            assert first[0] == 0 and first[1] != b""

    code, out, err = _run_cli("check", str(WORKSPACES / "bad_syntax.fzw"))
    assert code == 1 and out == b"" and err != b""
    code, out, err = _run_cli("check", str(WORKSPACES / "bad_reference.fzw"))
    assert code == 1 and err != b""
    code, out, err = _run_cli("check", str(WORKSPACES / "bad_axiom.fzw"))
    assert code == 2 and out == b"" and err != b""
    code, out, err = _run_cli(
        "enumerate", str(WORKSPACES / "s3.fzw"), "--budget", "100"
    )
    assert code == 3 and err != b""
    # exit code 4 (falsified check) is not reachable from well-formed inputs,
    # since the certified statements hold; the mapping is covered by a unit test
    print("ACCEPTANCE 7 (CLI determinism + exit codes): PASS")
