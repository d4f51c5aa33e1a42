"""Build, report and round-trip large covers of cyclic groups, one process each.

    python tools/large_covers.py [ORDER ...]

Each ORDER (by default 500, 1000 and 2000) stands for the cyclic group
C<ORDER>, which must be even and at least 4.  Its fuzzy subgroup is 1 at
the identity, 1/2 on the other even elements and 1/4 on the odd ones, three
levels {e} < 2C < C, so its cover has 3 * ORDER / 2 + 1 pairs: 751, 1501
and 3001 by default.  Each order runs in a new Python process, so no cover
or kept monoid of one order helps another, and each peak RSS is that of one
process; this driver imports no part of the library, so it adds little to
its children's ``ru_maxrss``, which counts the RSS a process had when it
was started.

Printed, one line per order: ``C<ORDER>`` and then the number of pairs, the
CPU seconds of `build_cover` (the group and the fuzzy subgroup are made
first, untimed), of `cover_report` and of the round trip
`premorphism_from_cover`, the peak RSS in MB (``ru_maxrss``), and ``ok`` when
the report matches and the round trip gives back the group table and the
ranks of mu, ``mismatch`` otherwise.

Exits 0 when every line ends in ``ok``, 1 otherwise and 2 on a bad order.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_ORDERS = (500, 1000, 2000)


def measure(order: int) -> str:
    """The line of one order, measured in this process."""
    sys.path.insert(0, str(SRC))
    from fractions import Fraction

    from fzcover import build_cover, cover_report, cyclic, premorphism_from_cover, validate_fuzzy

    group = cyclic(order)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    fz = validate_fuzzy(
        group, [Fraction(1) if x == 0 else half if x % 2 == 0 else quarter for x in range(order)]
    )
    start = time.process_time()
    cover = build_cover(fz)
    built = time.process_time()
    report = cover_report(cover)
    reported = time.process_time()
    dp = premorphism_from_cover(cover.monoid, cover.base, cover.projection)
    done = time.process_time()
    ok = (
        report.all_match
        and dp.group.table == group.table
        and dp.psi == tuple(fz.mu_index(x) for x in range(order))
    )
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"C{order} pairs {cover.n} build_s {built - start:.3f}"
        f" report_s {reported - built:.3f} round_trip_s {done - reported:.3f}"
        f" maxrss_mb {maxrss_mb:.1f} {'ok' if ok else 'mismatch'}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("orders", type=int, nargs="*", default=list(DEFAULT_ORDERS))
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if any(order < 4 or order % 2 for order in args.orders):
        parser.error("each order must be even and at least 4")
    if args.one:
        (order,) = args.orders
        line = measure(order)
        print(line)
        return 0 if line.endswith(" ok") else 1
    status = 0
    for order in args.orders:
        done = subprocess.run(
            [sys.executable, __file__, "--one", str(order)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
