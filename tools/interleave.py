"""Time one benchmark workload on two source trees in one process, in turns.

    python tools/interleave.py SRC_A SRC_B --workload W [--seed S] [--rounds N] [--passes P]

SRC_A and SRC_B are directories that hold an ``fzcover`` package, such as
``src`` of two checkouts.  Each is imported under a name of its own, so both
live in this process.  The items, the call and the observations are those of
``bench/workloads.py`` on the inputs of ``bench/inputs.py`` for the seed.
Each round times P passes of side A and P passes of side B, the side that
goes first alternating from round to round, so a drift of the machine's
speed falls on both.  A pass parses the workspace and prepares the items
afresh, untimed, then calls every item once through the bench's own loop,
as one benchmark session does, and counts its verdict seconds (which leave
the bench's speed probes out).

Printed: one line per round with each side's seconds (the sum of its
passes) and the ratio B/A, then the median of each, then the sha256 of each
side's observations over all its passes.  The exit code is 1 when the two
digests differ, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402


def load(src: Path, name: str):
    """The fzcover package under ``src``, imported as the module ``name``."""
    package = src / "fzcover"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def one_pass(lib, workload: str, spec: dict, digest) -> float:
    """Verdict seconds of one bench pass; its observations go into ``digest``."""
    ws = lib.parse_workspace(spec["workspace"])
    items, call, observe = workloads.PREPARE[workload](lib, ws, spec)
    seconds, _, observations, _, _ = workloads.run(items, call, observe)
    digest.update(json.dumps(observations, sort_keys=True).encode())
    return seconds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")

    sides = {"a": load(args.src_a, "fzcover_a"), "b": load(args.src_b, "fzcover_b")}
    spec = inputs.MAKERS[args.workload](args.seed)
    digests = {side: hashlib.sha256() for side in sides}
    times: dict[str, list[float]] = {side: [] for side in sides}
    ratios = []
    for r in range(args.rounds):
        order = ("a", "b") if r % 2 == 0 else ("b", "a")
        for side in order:
            times[side].append(
                sum(
                    one_pass(sides[side], args.workload, spec, digests[side])
                    for _ in range(args.passes)
                )
            )
        ratios.append(times["b"][-1] / times["a"][-1])
        print(
            f"round {r + 1}: a {times['a'][-1]:.4f} s  b {times['b'][-1]:.4f} s"
            f"  ratio {ratios[-1]:.3f}"
        )
    print(
        f"median: a {statistics.median(times['a']):.4f} s"
        f"  b {statistics.median(times['b']):.4f} s"
        f"  ratio {statistics.median(ratios):.3f}"
    )
    hexes = {side: digest.hexdigest() for side, digest in digests.items()}
    for side, hexdigest in hexes.items():
        print(f"sha256 {side} {hexdigest}")
    return 0 if hexes["a"] == hexes["b"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
