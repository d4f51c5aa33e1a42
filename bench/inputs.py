"""Seeded inputs for the three benchmark workloads, built without fzcover.

Groups are written here as Cayley tables, their subgroup lattices are known
in closed form (cyclic, dihedral) or found by closure (the small groups of
grid-sweep), and every fuzzy subgroup is given by a descending subgroup
chain plus increasing values.  The same seed always gives the same inputs,
and the shape of every input (chain, cover size, grid length) is recorded
next to it so the oracle can state the expected answers without the library.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

GRID4 = tuple(Fraction(i, 4) for i in range(1, 5))

# cover-ladder: 40 target cover sizes from 30 to 110, denser at the small end
# so that a session has enough items for a tail percentile yet stays near 3 s,
# which fits a dozen sessions, and so a dozen samples per item, in a 40 s run
LADDER = tuple(round(30 * (110 / 30) ** ((i / 39) ** 4)) for i in range(40))
LADDER_ORDERS = (16, 20, 24, 32, 40, 48, 64, 80, 96)
LADDER_TOLERANCE = 0.01

GRID_GROUPS = ("C2", "C3", "C4", "C5", "C6", "C7", "C8", "V4", "S3", "D8")
GRID_LEVELS = (2, 3, 4, 5)
# the filter tries k^n candidates; D8 and C8 on 5 levels (390625 each) would
# take half of a session, leaving too few sessions per run for steady medians
GRID_MAX_CANDIDATES = 100_000
POOL_GROUPS = ("C2", "C3", "C4", "V4")
POOL_PER_CHAIN = 2


class Group:
    """A finite group as labels and a Cayley table; element 0 is the identity."""

    def __init__(self, name, labels, table):
        self.name = name
        self.labels = tuple(labels)
        self.table = tuple(tuple(row) for row in table)

    @property
    def n(self) -> int:
        return len(self.labels)


def cyclic(n: int) -> Group:
    labels = ["e"] + [f"g{k}" for k in range(1, n)]
    return Group(f"C{n}", labels, [[(a + b) % n for b in range(n)] for a in range(n)])


def dihedral(m: int) -> Group:
    """Order 2m; index k is r^k and index m+k is r^k s, with s r = r^-1 s."""
    def mul(i, j):
        a, f = i % m, i // m
        b, g = j % m, j // m
        return (a + (b if f == 0 else -b)) % m + m * (f ^ g)

    labels = ["e"] + [f"r{k}" for k in range(1, m)] + [f"s{k}" for k in range(m)]
    return Group(f"D{2 * m}", labels, [[mul(i, j) for j in range(2 * m)] for i in range(2 * m)])


def klein_four() -> Group:
    return Group("V4", "eabc", [[a ^ b for b in range(4)] for a in range(4)])


def symmetric3() -> Group:
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    labels = ["p" + "".join(map(str, p)) for p in perms]
    labels[0] = "e"
    table = [[index[tuple(s[t[i]] for i in range(3))] for t in perms] for s in perms]
    return Group("S3", labels, table)


def named_group(name: str) -> Group:
    if name == "V4":
        return klein_four()
    if name == "S3":
        return symmetric3()
    if name.startswith("C"):
        return cyclic(int(name[1:]))
    return dihedral(int(name[1:]) // 2)


# -- subgroup lattices ----------------------------------------------------------

def closure(group: Group, gens) -> frozenset[int]:
    elems = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.table[x][g]
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def subgroups(group: Group) -> list[frozenset[int]]:
    """Every subgroup, by adjoining one element at a time to cyclic subgroups."""
    found = {closure(group, [g]) for g in range(group.n)}
    frontier = list(found)
    while frontier:
        grown = []
        for h in frontier:
            for g in range(group.n):
                if g not in h:
                    k = closure(group, list(h) + [g])
                    if k not in found:
                        found.add(k)
                        grown.append(k)
        frontier = grown
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def chains(group: Group) -> list[tuple[frozenset[int], ...]]:
    """All strictly descending subgroup chains starting at the whole group."""
    subs = subgroups(group)
    out = []

    def extend(chain):
        out.append(tuple(chain))
        for k in subs:
            if k < chain[-1]:
                extend(chain + [k])

    extend([frozenset(range(group.n))])
    return out


def divisor_chain_counts(n: int) -> dict[int, int]:
    """Number of chains n = d1 > d2 > ... > dm with each d dividing the one before."""
    counts: dict[int, int] = {}

    def extend(d, m):
        counts[m] = counts.get(m, 0) + 1
        for e in range(1, d):
            if d % e == 0:
                extend(e, m + 1)

    extend(n, 1)
    return counts


def _ladder_lattice(family: str, order: int):
    """Subgroups of C_n or D_2m as parameters: ("R", d) and ("D", d, c)."""
    m = order if family == "C" else order // 2
    subs = [("R", d) for d in range(1, m + 1) if m % d == 0]
    if family == "D":
        subs += [("D", d, c) for d in range(1, m + 1) if m % d == 0 for c in range(m // d)]
    return m, subs


def _sub_size(sub) -> int:
    return sub[1] if sub[0] == "R" else 2 * sub[1]


def _contains(m, big, small) -> bool:
    if big[1] % small[1]:
        return False
    if small[0] == "R":
        return True
    return big[0] == "D" and (small[2] - big[2]) % (m // big[1]) == 0


def _sub_elements(m, sub) -> list[int]:
    step = m // sub[1]
    rot = list(range(0, m, step))
    if sub[0] == "R":
        return rot
    return rot + [m + (k + sub[2]) % m for k in rot]


# -- workspace text -------------------------------------------------------------

def group_block(group: Group) -> str:
    rows = "\n".join(" ".join(group.labels[v] for v in row) for row in group.table)
    return f"group {group.name}\nelements {' '.join(group.labels)}\ntable\n{rows}\nend\n"


def fuzzy_block(name: str, group: Group, chain, values) -> str:
    mu = [None] * group.n
    for depth, sub in enumerate(chain):
        for x in sub:
            mu[x] = values[depth]
    assign = " ".join(f"{group.labels[x]}={mu[x]}" for x in range(group.n))
    return f"fuzzy {name} on {group.name}\nvalues {assign}\nend\n"


def rank_vector(n: int, chain) -> list[int]:
    ranks = [0] * n
    for depth, sub in enumerate(chain):
        for x in sub:
            ranks[x] = depth
    return ranks


# -- the three workloads --------------------------------------------------------

def make_certify_pool(seed: int) -> dict:
    """Two fuzzy subgroups per subgroup chain of C2, C3, C4 and V4 on the 4-grid.

    The number of morphisms between two objects depends only on their
    chains, so fixing the count per chain keeps the work per run steady while
    the seed picks the values and the pair order.
    """
    rng = random.Random(f"certify-pool:{seed}")
    groups = [named_group(g) for g in POOL_GROUPS]
    pool = []
    for group in groups:
        for chain in chains(group):
            picks = rng.sample(list(combinations(GRID4, len(chain))), POOL_PER_CHAIN)
            for values in picks:
                pool.append((group, chain, values))
    rng.shuffle(pool)
    text = "".join(group_block(g) for g in groups)
    objects = []
    for i, (group, chain, values) in enumerate(pool):
        name = f"p{i}"
        text += fuzzy_block(name, group, chain, values)
        objects.append({"name": name, "group": group.name,
                        "ranks": rank_vector(group.n, chain)})
    return {"workspace": text, "objects": objects}


def _chain_near(m, subs, chain, size, target, tol, rng, dead):
    """Randomized depth-first search for a chain whose orders sum to target +- tol."""
    if len(chain) > 1 and abs(size - target) <= tol:
        return chain
    if (chain[-1], size) in dead:
        return None
    below = [
        s for s in subs
        if s != chain[-1] and _contains(m, chain[-1], s) and size + _sub_size(s) <= target + tol
    ]
    rng.shuffle(below)
    for sub in below:
        found = _chain_near(m, subs, chain + [sub], size + _sub_size(sub), target, tol, rng, dead)
        if found:
            return found
    dead.add((chain[-1], size))
    return None


def _ladder_chain(rng, target):
    tol = round(LADDER_TOLERANCE * target)
    options = [(f, o) for f in "CD" for o in LADDER_ORDERS if o < target < 2 * o]
    rng.shuffle(options)
    for family, order in options:
        m, subs = _ladder_lattice(family, order)
        top = ("R", m) if family == "C" else ("D", m, 0)
        chain = _chain_near(m, subs, [top], order, target, tol, rng, set())
        if chain:
            return family, order, m, chain
    raise RuntimeError(f"no subgroup chain reaches cover size {target}")


def make_cover_ladder(seed: int) -> dict:
    """One fuzzy subgroup per ladder rung, on a cyclic or dihedral group of order 16-96.

    The cover work grows as the cube of the cover size (the sum of the chain's
    subgroup orders) and also depends on the chain's shape, so each rung's
    group and chain shape are drawn once, independently of the seed, with a
    cover size within 1% of the rung.  The seed picks the values, on a
    dihedral group which conjugate reflection subgroups the chain uses, and
    the item order; a shuffled order spreads items of one size over the
    session, so a short burst of machine noise cannot hit all of them.
    """
    shapes = random.Random("cover-ladder:shapes")
    rng = random.Random(f"cover-ladder:{seed}")
    groups: dict[str, Group] = {}
    blocks = []
    items = []
    for i, target in enumerate(LADDER):
        family, order, m, chain = _ladder_chain(shapes, target)
        if family == "D":
            # r^k s -> r^(k+t) s is an automorphism; it shifts every reflection coset
            t = rng.randrange(m)
            chain = [s if s[0] == "R" else ("D", s[1], (s[2] + t) % (m // s[1])) for s in chain]
        group = cyclic(order) if family == "C" else dihedral(m)
        groups.setdefault(group.name, group)
        sets = [frozenset(_sub_elements(m, s)) for s in chain]
        values = sorted(rng.sample(range(1, 65), len(sets)))
        name = f"f{i}"
        blocks.append(fuzzy_block(name, group, sets, [Fraction(v, 64) for v in values]))
        items.append({"name": name, "group": group.name,
                      "ranks": rank_vector(group.n, sets),
                      "levels": [len(s) for s in sets]})
    rng.shuffle(items)
    text = "".join(group_block(g) for g in groups.values()) + "".join(blocks)
    return {"workspace": text, "items": items}


def make_grid_sweep(seed: int) -> dict:
    """Every small group against one seeded value grid of each length 2 to 5.

    A (group, length) pair is left out when the filter would try more than
    ``GRID_MAX_CANDIDATES`` assignments, which drops D8 and C8 on 5 levels.
    The enumeration work depends on the grid length and not on its values,
    so the seed picks only the values and the item order.
    """
    rng = random.Random(f"grid-sweep:{seed}")
    groups = [named_group(g) for g in GRID_GROUPS]
    items = []
    for group in groups:
        for k in GRID_LEVELS:
            if k ** group.n > GRID_MAX_CANDIDATES:
                continue
            below_one = sorted(rng.sample(range(1, 60), k - 1))
            levels = [Fraction(v, 60) for v in below_one] + [Fraction(1)]
            items.append({"group": group.name, "levels": [str(v) for v in levels]})
    rng.shuffle(items)
    text = "".join(group_block(g) for g in groups)
    return {"workspace": text, "items": items}


MAKERS = {
    "certify-pool": make_certify_pool,
    "cover-ladder": make_cover_ladder,
    "grid-sweep": make_grid_sweep,
}
