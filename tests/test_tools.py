"""The tools: certify_pool.py certifies every ordered pair of one group's
filter pool; interleave.py times two source trees in turns on one benchmark
workload and compares their observations; large_covers.py builds, reports
and round-trips covers of cyclic groups, one process each; bench/selftest.py
checks that the benchmark counts planted faults as failures.  Every item of
the bench's workloads, run once in process, must pass the bench's own
oracle."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fzcover
from fzcover import groups
from fzcover.errors import BudgetExceeded
from tests.test_enumeration import count_plans
from tools.certify_pool import certify_pool, group_named

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "certify_pool.py"

# sha256 of the certificates of the S4 pool at k = 2, as the search over
# every element and one cover search per object pair made them
S4_K2_CERTIFICATES_SHA256 = "bbb573984a7bef3b01aa05a74f012b013d42d25142a2fed78f34eeafa3074998"

# sha256 of the certificates of the D8 pool at k = 3, as the embedding that
# validated every morphism once per ordered pair of objects made them
D8_K3_CERTIFICATES_SHA256 = "593b54dfc673db0f24f156f582e3650f9ecfd783161715d9deed6565c16f6105"


def test_the_script_certifies_the_c2_pool():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "C2", "2"], capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    lines = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    assert list(lines) == ["pairs", "ok", "seconds", "warm_seconds", "sha256"]
    assert lines["pairs"] == lines["ok"] == "9"
    assert float(lines["seconds"]) >= 0 and float(lines["warm_seconds"]) >= 0
    assert lines["sha256"] == "d970153d3b1144b004dbdd15b00d852c9b8f050487c68fad39141d295c87d17d"


def test_the_script_refuses_a_bad_group_or_grid():
    for args in (["Q8", "2"], ["C2", "0"], ["C2"]):
        done = subprocess.run(
            [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, check=False
        )
        assert done.returncode == 2 and done.stdout == ""


def test_the_script_exits_3_on_a_budget(monkeypatch, capsys):
    import tools.certify_pool as tool

    def over_budget(group_name, k):
        raise BudgetExceeded(8, 7, "group homomorphism nodes")

    monkeypatch.setattr(tool, "certify_pool", over_budget)
    assert tool.main(["C2", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: 8 group homomorphism nodes exceed budget 7\n"


def test_the_script_refuses_more_grid_levels_than_the_budget(capsys):
    # refused before the grid is built: a million levels are never made
    import tools.certify_pool as tool

    assert tool.main(["C2", "1000001"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: 1000001 grid levels exceed budget 1000000\n"


def test_the_script_exits_1_when_the_warm_pass_hashes_otherwise(monkeypatch, capsys):
    import tools.certify_pool as tool

    result = {"pairs": 1, "ok": 1, "seconds": 0.0, "warm_seconds": 0.0}
    monkeypatch.setattr(
        tool, "certify_pool", lambda group_name, k: {**result, "sha256": "a", "warm_sha256": "b"}
    )
    assert tool.main(["C2", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "sha256 a" and err.startswith("error: ")


def test_group_names():
    assert [group_named(name).n for name in ("C1", "C5", "D8", "S3", "V4")] == [1, 5, 8, 6, 4]
    with pytest.raises(ValueError):
        group_named("D7")


def test_the_s4_pool_at_two_levels_keeps_its_certificates():
    result = certify_pool("S4", 2)
    assert (result["pairs"], result["ok"]) == (31**2, 31**2)
    assert result["sha256"] == S4_K2_CERTIFICATES_SHA256


def test_the_d8_pool_at_three_levels_keeps_its_certificates():
    # 45 objects of 25 shapes: most pairs read arrays another pair found
    result = certify_pool("D8", 3)
    assert (result["pairs"], result["ok"]) == (45**2, 45**2)
    assert result["sha256"] == D8_K3_CERTIFICATES_SHA256


INTERLEAVE = SCRIPT.parent / "interleave.py"
ROOT = SCRIPT.parent.parent
# the subprocesses that import the bench's modules write no bytecode, so
# the bench directory is left as it was
NO_BYTECODE = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def _interleave(src_a, src_b):
    return subprocess.run(
        [sys.executable, str(INTERLEAVE), str(src_a), str(src_b),
         "--workload", "cover-ladder", "--rounds", "1", "--passes", "1"],
        capture_output=True, text=True, check=False, cwd=ROOT, env=NO_BYTECODE,
    )


def test_interleave_times_one_tree_against_itself():
    done = _interleave("src", "src")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["round 1", "median", "quartiles"]
    # one round: each side's three quartiles are its one time
    words = lines[2].split()
    assert words[1] == "a" and words[2] == words[3] == words[4] and words[5:7] == ["s", "b"]
    assert words[7] == words[8] == words[9] and words[10] == "s"
    assert " ".join(words[11:]) in (f"b faster in {n} of 1 rounds" for n in (0, 1))
    digests = [line.split() for line in lines[3:]]
    assert [d[:2] for d in digests] == [["sha256", "a"], ["sha256", "b"]]
    assert digests[0][2] == digests[1][2] and len(digests[0][2]) == 64


def test_interleave_exits_1_when_observations_differ(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "fzcover", changed / "fzcover")
    fuzzy = changed / "fzcover" / "fuzzy.py"
    # every level one element short, so the observed level sizes differ
    fuzzy.write_text(
        fuzzy.read_text(encoding="utf-8")
        + "\n\n_level_subset = level_subset\n\n\n"
        "def level_subset(fz, u):\n"
        "    return _level_subset(fz, u) - {fz.group.identity}\n",
        encoding="utf-8",
    )
    done = _interleave("src", changed)
    assert done.returncode == 1, done.stderr
    digests = [line.split()[2] for line in done.stdout.splitlines() if line.startswith("sha256")]
    assert len(digests) == 2 and digests[0] != digests[1]


LARGE_COVERS = SCRIPT.parent / "large_covers.py"


def test_large_covers_builds_reports_and_round_trips_small_covers():
    done = subprocess.run(
        [sys.executable, str(LARGE_COVERS), "8", "20"], capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[0] for line in lines] == ["C8", "C20"]
    for line, pairs in zip(lines, ("13", "31")):
        assert line[-1] == "ok"
        fields = dict(zip(line[1:-1:2], line[2:-1:2]))
        assert list(fields) == ["pairs", "build_s", "report_s", "round_trip_s", "maxrss_mb"]
        assert fields["pairs"] == pairs
        assert all(float(v) >= 0 for v in fields.values())


def test_large_covers_refuses_an_odd_or_small_order():
    for args in (["7"], ["2"], ["x"]):
        done = subprocess.run(
            [sys.executable, str(LARGE_COVERS), *args], capture_output=True, text=True, check=False
        )
        assert done.returncode == 2 and done.stdout == ""


def test_the_bench_selftest_counts_its_planted_faults():
    # the bench plants its faults with dataclasses.replace on a certificate
    # and a report, so a change to those records that breaks the planting
    # fails here
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, check=False, cwd=ROOT, env=NO_BYTECODE,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"


# -- the bench's own items, each run once through the bench's oracle -------------

@pytest.fixture
def bench(monkeypatch):
    """The bench's input, workload and oracle modules, imported with no bytecode written."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return tuple(importlib.import_module(name) for name in ("inputs", "workloads", "oracle"))


def _session(bench, workload, seed):
    """The bench's items of one workload and seed, with its call and observer."""
    inputs, workloads, _ = bench
    spec = inputs.MAKERS[workload](seed)
    ws = fzcover.parse_workspace(spec["workspace"])
    return spec, workloads.PREPARE[workload](fzcover, ws, spec)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["certify-pool", "cover-ladder", "grid-sweep"])
def test_every_bench_item_passes_the_bench_oracle(bench, workload, seed):
    _, workloads, oracle = bench
    spec, (items, call, observe) = _session(bench, workload, seed)
    _, _, observations, _, _ = workloads.run(items, call, observe)
    assert oracle.count_failed(workload, observations, oracle.EXPECT[workload](spec)) == 0


def test_a_certify_pool_session_plans_each_table_once(bench, monkeypatch):
    _, workloads, _ = bench
    _, (items, call, observe) = _session(bench, "certify-pool", 1)
    planned = count_plans(monkeypatch)
    read, real = [], groups._Table.plan

    def plan(table):
        read.append(table)
        return real.fget(table)

    monkeypatch.setattr(groups._Table, "plan", property(plan))
    workloads.run(items, call, observe)
    # a group and a cover monoid with equal rows are two tables; each
    # relabeling of a table plans with it
    tables = {(type(t), t.table, t.generators) for t in read}
    assert len(planned) == len(tables) < len(read)
