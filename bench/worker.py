"""One benchmark session in a fresh interpreter.

Run by ``run.py`` as ``python3 bench/worker.py --workload W --seed N
[--spans PATH]``.  Set-up is ``import fzcover``, seeded input generation and
``parse_workspace`` of the generated text; the worker reports the
``time.monotonic()`` reading at which set-up ended, and the parent, which
read the same system-wide clock before starting the process, takes the
difference.  The timed phase then runs every item once, and the only stdout
line is one JSON object with that reading, the verdict time, the median
speed probe, per-item latencies and probes, observations and peak RSS.  With
``--spans`` the session is traced and the spans are written to that path.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import fzcover

    if Path(fzcover.__file__).resolve().parent != SRC / "fzcover":
        print(f"fzcover imported from {fzcover.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    spec = inputs.MAKERS[args.workload](args.seed)
    ws = fzcover.parse_workspace(spec["workspace"])
    items, call, observe = workloads.PREPARE[args.workload](fzcover, ws, spec)
    ready_at = time.monotonic()

    verdict, latencies, observations, probes, item_probes = workloads.run(
        items, call, observe, tracer
    )
    result = {
        "ready_at": ready_at,
        "verdict_s": verdict,
        "probe_s": statistics.median(probes),
        "latencies": latencies,
        "item_probes": item_probes,
        "observations": observations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
