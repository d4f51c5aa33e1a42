"""fzcover verification benchmark.

    python3 bench/run.py --workload certify-pool --seed 1 --seconds 40 --trace 0

Runs one workload for about ``--seconds`` seconds as a sequence of sessions,
each a fresh interpreter (``worker.py``) started only after the previous one
has ended, so the module-level caches of fzcover start cold every time and
all load comes from one process at a time.  Every item of every session is
checked against known answers computed here, without fzcover (``oracle.py``).

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
untraced and traced sessions alternate, the per-layer metrics come from the
traced ones and their verdict time minus the untraced one is reported as the
tracing overhead.  Human-readable lines come first; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (machine, commit, every session) is written under
``bench/_runs/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
WALL_LIMIT_S = 170.0
PERCENTILES = (50, 70, 75, 90, 95, 99, 99.9)
# On a shared host the speed a process gets can drift by +-25% over minutes,
# as much as the bounds.  Each session times a fixed fzcover-free probe
# between its items (workloads.probe), and verdict time and latencies are
# reported at the speed at which one probe takes this long: about the median
# on a shared 2-vCPU Xeon with Python 3.11 (see README.md, "Noise").
PROBE_REF_S = 0.8e-3

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(items_per_session: int) -> float:
    """The highest percentile with at least ten of one session's items beyond it."""
    best = 50
    for p in PERCENTILES:
        if items_per_session - math.ceil(p / 100 * items_per_session) >= 10:
            best = p
    return best


def percentile(values, p) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "fzcover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
    }


def session(workload: str, seed: int, spans, deadline: float) -> dict:
    """Run one worker to completion; returns its result plus the set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {workload} session did not end within the run's time limit")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} session exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    result["wall_s"] = time.monotonic() - started
    result["traced"] = spans is not None
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Sessions until the next one would overrun ``seconds``; at least one of each kind."""
    start = time.monotonic()
    hard_deadline = start + WALL_LIMIT_S
    seconds = min(seconds, WALL_LIMIT_S)
    spans = RUNS / f"{workload}.spans.tsv"
    sessions: list[dict] = []
    while True:
        traced = trace and len(sessions) % 2 == 1
        sessions.append(session(workload, seed, spans if traced else None, hard_deadline))
        next_traced = trace and len(sessions) % 2 == 1
        same_kind = [s["wall_s"] for s in sessions if s["traced"] == next_traced]
        estimate = same_kind[-1] if same_kind else sessions[-1]["wall_s"]
        kinds = {s["traced"] for s in sessions}
        if kinds == ({False, True} if trace else {False}) and (
            time.monotonic() + estimate > start + seconds
        ):
            return sessions


def speed_scale(s: dict) -> float:
    """Factor that takes a session's verdict time to the speed of ``PROBE_REF_S``."""
    return PROBE_REF_S / s["probe_s"]


def end_to_end(sessions, tail_p) -> dict:
    """Medians over sessions; an item's latency is its median over the sessions.

    Every session runs the same items in the same order, so taking each
    item's median first discards a burst of machine noise that slowed one
    item in one session, before the percentiles rank the items.  Verdict
    time is first scaled by ``speed_scale``, and each latency by the probe
    around its item; set-up time and memory are reported as measured.
    """
    per_item = [
        statistics.median(lat * PROBE_REF_S / probe for lat, probe in samples)
        for samples in zip(*(zip(s["latencies"], s["item_probes"]) for s in sessions))
    ]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "verdict_s": statistics.median(s["verdict_s"] * speed_scale(s) for s in sessions),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": percentile(per_item, tail_p) * 1e3,
        "peak_rss_mb": statistics.median(s["maxrss_kb"] for s in sessions) / 1024,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fzcover" / "__init__.py").is_file():
        print(f"bench: no fzcover sources under {SRC}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)

    spec = inputs.MAKERS[args.workload](args.seed)
    expected = oracle.EXPECT[args.workload](spec)
    sessions = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(len(s["observations"]) for s in sessions)
    failed = sum(
        oracle.count_failed(args.workload, s["observations"], expected) for s in sessions
    )
    untraced = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    tail_p = tail_percentile(len(expected))
    e2e = end_to_end(untraced, tail_p)
    env = environment()

    print(f"# env {json.dumps(env)}")
    print(
        f"# {args.workload} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced session(s) of {len(expected)} items"
    )
    for name, unit in END_TO_END.items():
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{tail_p:g} of {len(expected)} items, each the median of {len(untraced)})"
        print(f"{name:<14} {e2e[name]:12.4f} {unit}{note}")
    probe = statistics.median(s["probe_s"] for s in untraced)
    print(
        f"# verdict_s and item times are scaled to a {PROBE_REF_S * 1e3:g} ms probe; "
        f"the median probe took {probe * 1e3:.4f} ms"
    )
    print(f"{'failed_ratio':<14} {failed / attempted:12.4f} ratio  ({failed} of {attempted} items)")

    if args.trace:
        layer_values = {
            name: statistics.median(s["layers"][name] for s in traced)
            for name in tracing.METRICS
        }
        layer_values["trace.verdict_overhead_s"] = statistics.median(
            s["verdict_s"] * speed_scale(s) for s in traced
        ) - e2e["verdict_s"]
        units = dict(tracing.METRICS, **{"trace.verdict_overhead_s": "s"})
        for name, value in layer_values.items():
            print(f"{name:<55} {value:>14.6g} {units[name]}")
        if traced[-1]["absent"]:
            print(f"# absent layers (reported as 0): {' '.join(traced[-1]['absent'])}")
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layer_values.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "tail_percentile": tail_p,
        "sessions": [
            {k: s[k] for k in ("traced", "setup_s", "verdict_s", "probe_s", "wall_s", "maxrss_kb")}
            for s in sessions
        ],
        "result": summary,
    }
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
