"""Known answers for every benchmark item, and the checker that compares them.

Nothing here imports fzcover: the expected values follow from the generated
inputs alone (brute-force group homomorphisms on the bench's own tables,
divisor-lattice and closure-lattice chain counts, and sums over the
generated subgroup chains).  The checker marks an item failed when it raised
or when any observed value differs from its known answer.
"""

from __future__ import annotations

from itertools import product
from math import comb

import inputs


def group_homs(source: inputs.Group, target: inputs.Group) -> list[tuple[int, ...]]:
    st, tt = source.table, target.table
    n = source.n
    return [
        f
        for f in product(range(target.n), repeat=n)
        if all(f[st[a][b]] == tt[f[a]][f[b]] for a in range(n) for b in range(n))
    ]


def fuzzy_hom_count(homs, ranks_a, ranks_b) -> int:
    """Morphisms (f, lam): lam is forced by f, monotone and top-preserving."""
    top_a, top_b = max(ranks_a), max(ranks_b)
    count = 0
    for f in homs:
        lam = {}
        if all(lam.setdefault(ra, ranks_b[f[x]]) == ranks_b[f[x]] for x, ra in enumerate(ranks_a)):
            steps = [lam[r] for r in range(top_a + 1)]
            if steps == sorted(steps) and steps[-1] == top_b:
                count += 1
    return count


def _ranks_of_code(code: str) -> list[int]:
    # code: grid index per element; ranks are positions among the values taken
    taken = sorted(set(code))
    return [taken.index(c) for c in code]


def expect_certify_pool(spec) -> list[dict]:
    objs = spec["objects"]
    groups = {name: inputs.named_group(name) for name in {o["group"] for o in objs}}
    homs = {(a, b): group_homs(groups[a], groups[b]) for a in groups for b in groups}
    count = {
        (i, j): fuzzy_hom_count(homs[a["group"], b["group"]], a["ranks"], b["ranks"])
        for i, a in enumerate(objs)
        for j, b in enumerate(objs)
    }
    return [
        {"homs": count[i, j], "composition_checks": 2 * count[i, j] * count[j, i]}
        for i in range(len(objs))
        for j in range(len(objs))
    ]


def expect_cover_ladder(spec) -> list[dict]:
    return [
        {"size": sum(it["levels"]), "levels": it["levels"], "psi": it["ranks"]}
        for it in spec["items"]
    ]


def fuzzy_subgroup_count(group_name: str, k: int) -> int:
    """Chains of length m, each with C(k, m) increasing value picks."""
    group = inputs.named_group(group_name)
    if group_name.startswith("C"):
        by_length = inputs.divisor_chain_counts(group.n)
    else:
        by_length = {}
        for chain in inputs.chains(group):
            by_length[len(chain)] = by_length.get(len(chain), 0) + 1
    return sum(c * comb(k, m) for m, c in by_length.items())


def expect_grid_sweep(spec) -> list[dict]:
    return [
        {"count": fuzzy_subgroup_count(it["group"], len(it["levels"]))}
        for it in spec["items"]
    ]


EXPECT = {
    "certify-pool": expect_certify_pool,
    "cover-ladder": expect_cover_ladder,
    "grid-sweep": expect_grid_sweep,
}


def item_ok(workload: str, obs: dict, exp: dict) -> bool:
    """True iff the item ran and every observed value equals its known answer."""
    if "error" in obs:
        return False
    if workload == "certify-pool":
        return (
            obs["ok"]
            and obs["fuzzy_homs"] == exp["homs"]
            and obs["cover_homs"] == exp["homs"]
            and obs["composition_checks"] == exp["composition_checks"]
        )
    if workload == "cover-ladder":
        return (
            obs["closed_forms"]
            and obs["size"] == exp["size"]
            and obs["hclass_sizes"] == exp["levels"]
            and obs["level_sizes"] == exp["levels"]
            and obs["psi"] == exp["psi"]
        )
    if obs["filter"] != obs["chain"] or len(obs["filter"]) != exp["count"]:
        return False
    for code, (size, closed_forms, psi) in zip(obs["filter"], obs["covers"]):
        ranks = _ranks_of_code(code)
        if not closed_forms or size != sum(r + 1 for r in ranks) or psi != ranks:
            return False
    return len(obs["covers"]) == len(obs["filter"])


def count_failed(workload: str, observations, expected) -> int:
    if len(observations) != len(expected):
        raise ValueError(f"{len(observations)} observations for {len(expected)} items")
    return sum(not item_ok(workload, o, e) for o, e in zip(observations, expected))
