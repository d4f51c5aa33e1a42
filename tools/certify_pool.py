"""Certify every ordered pair of one group's filter pool with one hom_cache.

    python tools/certify_pool.py GROUP K

GROUP is C<n> (cyclic of order n), D<m> (dihedral of order m, m even),
S<n> (symmetric on n points) or V4 (Klein four).  The pool is every fuzzy
subgroup of GROUP over the K-level grid {1/K, ..., 1}, as
`enumerate_fuzzy_subgroups_filter` lists it.  Every ordered pair is
certified in process by `verify_embedding`, all with one `hom_cache` dict,
as `fzcover embed` does.  Then every pair is certified and hashed again
over the same dict, a warm pass that finds every search and verdict kept.
Printed on one line each: the number of pairs, how many certificates are
ok, the CPU seconds taken to certify and hash every pair (the pool's
enumeration not included), the CPU seconds of the warm pass and the sha256
of the certificates, each as sorted-key JSON in pair order.

Exits 0 when every certificate is ok and the warm pass hashes alike, 1
otherwise, 2 on a bad group or grid and 3 when K or a search exceeds the
default budget.  K is refused before any grid level is built, as
``fzcover --grid`` refuses it, since the filter tries every level.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fzcover import (  # noqa: E402
    cyclic,
    default_grid,
    dihedral,
    enumerate_fuzzy_subgroups_filter,
    klein_four,
    symmetric,
    verify_embedding,
)
from fzcover.errors import DEFAULT_BUDGET, BudgetExceeded  # noqa: E402


def group_named(name: str):
    """The group a name such as C4, D8, S3 or V4 stands for."""
    kind, order = name[:1].upper(), name[1:]
    if name.upper() == "V4":
        return klein_four()
    if order.isdigit() and int(order) >= 1:
        n = int(order)
        if kind == "C":
            return cyclic(n)
        if kind == "S":
            return symmetric(n)
        if kind == "D" and n % 2 == 0:
            return dihedral(n // 2)
    raise ValueError(f"unknown group {name!r}: use C<n>, D<m> with m even, S<n> or V4")


def certify_all(pool, hom_cache: dict) -> tuple[int, float, str]:
    """Ok count, CPU seconds and certificate sha256 of every ordered pair of the pool."""
    digest = hashlib.sha256()
    ok = 0
    start = time.process_time()
    for a in pool:
        for b in pool:
            doc = verify_embedding(a, b, hom_cache=hom_cache).to_json_dict()
            ok += doc["ok"]
            digest.update(json.dumps(doc, sort_keys=True).encode())
    return ok, time.process_time() - start, digest.hexdigest()


def certify_pool(group_name: str, k: int) -> dict:
    """Pairs, ok count, CPU seconds of a cold and a warm pass, and the sha256 of each."""
    group = group_named(group_name)
    if k > DEFAULT_BUDGET:
        raise BudgetExceeded(k, DEFAULT_BUDGET, "grid levels")
    pool = enumerate_fuzzy_subgroups_filter(group, default_grid(k))
    hom_cache: dict = {}
    ok, seconds, sha256 = certify_all(pool, hom_cache)
    _, warm_seconds, warm_sha256 = certify_all(pool, hom_cache)
    return {
        "pairs": len(pool) ** 2,
        "ok": ok,
        "seconds": round(seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "sha256": sha256,
        "warm_sha256": warm_sha256,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit() or int(argv[1]) < 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        result = certify_pool(argv[0], int(argv[1]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    warm_sha256 = result.pop("warm_sha256")
    for key, value in result.items():
        print(f"{key} {value}")
    if warm_sha256 != result["sha256"]:
        print(f"error: the warm pass hashes to {warm_sha256}", file=sys.stderr)
        return 1
    return 0 if result["ok"] == result["pairs"] else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
