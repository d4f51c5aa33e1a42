"""Golden CLI outputs: stdout digest and exit code of each command on each workspace.

Every command runs in process through ``cli.main`` over every
``workspaces/*.fzw`` in both formats, and the sha256 of its stdout and its
exit code are compared with the committed table ``golden_cli.json``; one run
also goes through ``python -m fzcover.cli`` in a new interpreter.  A change
meant to alter CLI output regenerates the table with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of the table shows which runs changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fzcover.cli import main

HERE = Path(__file__).resolve().parent
WORKSPACES = HERE.parent / "workspaces"
TABLE = HERE / "golden_cli.json"
EMBED_PAIRS = (("morphisms", "z2"), ("v4", "s3"), ("z2", "bad_axiom"))


def golden_runs() -> list[list[str]]:
    """The argument lists of every run in the table, paths relative to the repo."""
    files = sorted(p.name for p in WORKSPACES.glob("*.fzw"))
    runs = []
    for name in files:
        path = f"workspaces/{name}"
        runs.append(["check", path])
        runs.append(["cover", path, "--report", "sigma,green,levels,order,table"])
        runs.append(["levels", path])
        runs += [["enumerate", path, "--grid", str(k)] for k in range(1, 5)]
    for a, b in EMBED_PAIRS:
        runs.append(["embed", f"workspaces/{a}.fzw", f"workspaces/{b}.fzw"])
    return [run + ["--format", fmt] for run in runs for fmt in ("text", "machine")]


def golden_table() -> dict[str, dict]:
    """Run every golden run; key each by its argument line."""
    table = {}
    for run in golden_runs():
        out = io.StringIO()
        argv = [str(WORKSPACES.parent / a) if a.startswith("workspaces/") else a for a in run]
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        table[" ".join(run)] = {"exit": code, "stdout_sha256": digest}
    return table


def test_cli_outputs_match_the_golden_table():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    actual = golden_table()
    assert sorted(actual) == sorted(expected)
    changed = [run for run in expected if actual[run] != expected[run]]
    assert not changed, f"{len(changed)} run(s) changed, first: {changed[0]}"


def test_module_entry_point_prints_the_golden_check():
    # ``python -m fzcover.cli`` as the README documents it, in a new interpreter
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "fzcover.cli", "check", "workspaces/z2.fzw"],
        cwd=HERE.parent, env=env, capture_output=True, timeout=60,
    )
    golden = json.loads(TABLE.read_text(encoding="utf-8"))["check workspaces/z2.fzw --format text"]
    assert (run.returncode, run.stderr) == (golden["exit"], b"")
    assert hashlib.sha256(run.stdout).hexdigest() == golden["stdout_sha256"]


if __name__ == "__main__":
    rows = [f" {json.dumps(run)}: {json.dumps(entry)}" for run, entry in sorted(golden_table().items())]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
