"""Self-test of the benchmark's checker: planted faults must count as failures.

    python3 bench/selftest.py

For each workload, a few items run in this process twice: once as they are,
where every item must pass, and once with one library function replaced so
that its first call raises ``BudgetExceeded`` and its second returns a wrong
result.  Both planted items must be counted as failed, so that a broken
oracle or item loop can never read as a pass.  Exits non-zero on any miss.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import inputs
import oracle
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
ITEMS = 4


def _wrong_certificate(cert):
    return dataclasses.replace(cert, composition_checks=cert.composition_checks + 1)


def _wrong_report(report):
    return dataclasses.replace(report, order_match=False)


def _wrong_chain_list(found):
    return found[:-1]


# workload -> (library function to plant into, how its second result is corrupted)
PLANTS = {
    "certify-pool": ("verify_embedding", _wrong_certificate),
    "cover-ladder": ("cover_report", _wrong_report),
    "grid-sweep": ("enumerate_fuzzy_subgroups_chain", _wrong_chain_list),
}


def _planted(real, corrupt, budget_error):
    calls = 0

    def fake(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 1:
            raise budget_error(10, 1, "planted candidates")
        result = real(*args, **kwargs)
        return corrupt(result) if calls == 2 else result

    return fake


def _failed(lib, workload, spec, expected) -> int:
    ws = lib.parse_workspace(spec["workspace"])
    items, call, observe = workloads.PREPARE[workload](lib, ws, spec)
    _, _, observations, _, _ = workloads.run(items[:ITEMS], call, observe)
    return oracle.count_failed(workload, observations, expected[:ITEMS])


def main() -> int:
    sys.path.insert(0, str(SRC))
    import fzcover

    problems = []
    for workload, (name, corrupt) in PLANTS.items():
        spec = inputs.MAKERS[workload](1)
        expected = oracle.EXPECT[workload](spec)
        clean = _failed(fzcover, workload, spec, expected)
        real = getattr(fzcover, name)
        setattr(fzcover, name, _planted(real, corrupt, fzcover.errors.BudgetExceeded))
        try:
            planted = _failed(fzcover, workload, spec, expected)
        finally:
            setattr(fzcover, name, real)
        print(
            f"{workload}: clean failed_ratio {clean / ITEMS:g}, "
            f"planted failed_ratio {planted / ITEMS:g} ({planted} of {ITEMS})"
        )
        if clean != 0:
            problems.append(f"{workload}: {clean} clean item(s) failed")
        if planted < 2:
            problems.append(f"{workload}: planted faults counted {planted} failure(s), not 2")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
