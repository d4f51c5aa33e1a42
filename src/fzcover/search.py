"""The two searches behind every homomorphism, isomorphism and fuzzy-subgroup
enumeration, one per kind of map.

`generated_maps` lists homomorphisms, and so isomorphisms, by the images of
a generating set alone: the rest of each map is forced.  `dual_chain_ranks`
assigns every element a rank in turn, with the test r(a*b) >= min(r(a),
r(b)) on each product: the maps it lists are the dual premorphisms into a
chain of ranks, which is how a fuzzy subgroup reads.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Sequence

from .errors import BudgetExceeded


def tuple_getter(indices: Sequence[int]):
    """The map from a sequence s to the tuple of its entries at ``indices``.

    `operator.itemgetter` of one index returns the bare entry, not a
    1-tuple; this returns a tuple for one index or more.
    """
    if len(indices) == 1:
        (i,) = indices
        return lambda s: (s[i],)
    return itemgetter(*indices)


def _closure(source: Sequence[Sequence[int]], generators: Sequence[int]) -> set[int]:
    """The elements reached from ``generators`` by right multiplication by them."""
    reached: set[int] = set()
    todo = list(generators)
    while todo:
        x = todo.pop()
        if x not in reached:
            reached.add(x)
            todo.extend(map(source[x].__getitem__, generators))
    return reached


def _powers(source: Sequence[Sequence[int]], g: int) -> tuple[tuple[int, ...], int]:
    """g, g^2, ..., g^m up to the first repeat, and the index of g^(m+1) in that list."""
    powers = [g]
    at = {g: 0}
    p = source[g][g]
    while p not in at:
        at[p] = len(powers)
        powers.append(p)
        p = source[p][g]
    return tuple(powers), at[p]


def generator_plan(source: Sequence[Sequence[int]], generators: Sequence[int]) -> tuple:
    """The plan of `generated_maps`: one level per generator kept.

    Each generator that the others generate is dropped, in the order given,
    so no level searches an image that the rest force.  Level i holds the
    generator g, its powers as `_powers` gives them, the tree edges
    (y, x, h) that give the elements first reached at this level, y = x*h
    with x reached before y, and, per generator h, the pairs (x, h) that
    the level completes: x*h with x and h reached by level i, not both by
    level i - 1, and not a tree edge.  The reached set is closed under
    right multiplication by the generators so far, so it is the
    subsemigroup they generate.  Raises ValueError if the generators do not
    reach every element.  The plan depends on the source table alone.
    """
    n = len(source)
    gens = list(dict.fromkeys(generators))
    for g in list(gens):
        others = [h for h in gens if h != g]
        if others and len(_closure(source, others)) == n:
            gens = others
    reached = [False] * n
    members: list[int] = []
    kept: list[int] = []
    levels = []
    for g in gens:
        kept.append(g)
        old = len(members)
        edges = set()
        tree = []
        todo = deque([(g, -1, -1)])
        todo.extend((source[m][g], m, g) for m in members)
        while todo:
            y, x, h = todo.popleft()
            if reached[y]:
                continue
            reached[y] = True
            members.append(y)
            if x >= 0:
                tree.append((y, x, h))
                edges.add((x, h))
            todo.extend((source[y][k], y, k) for k in kept)
        checks = []
        for h in kept:
            xs = [
                x
                for x in (members if h == g else members[old:])
                if (x, h) not in edges
            ]
            if xs:
                ps = [source[x][h] for x in xs]
                checks.append((h, tuple_getter(xs), tuple_getter(ps)))
        levels.append((g, _powers(source, g), tuple(tree), tuple(checks)))
    if len(members) != n:
        raise ValueError("the generators do not generate the source table")
    return tuple(levels)


def generated_maps(
    plan: tuple,
    target: Sequence[Sequence[int]],
    domains: Sequence[Sequence[int]],
    *,
    budget: int,
    label: str,
) -> list[tuple[int, ...]]:
    """Every homomorphism f with f(x) in domains[x], in lexicographic order.

    ``plan`` is the `generator_plan` of an associative source table and a
    generating set of it, as the ``plan`` of a validated group or monoid
    is, and ``target`` is associative.  Only the images of the plan's
    generators are searched, one generator per level, each over its sorted
    domain, cut first to the images v under which the powers of the
    generator keep their domains and their one relation: f(g^j) = v^j, and
    g^(m+1) = g^k forces v^(m+1) = v^k.  A level extends f along its tree
    edges, f(x*h) = f(x)*f(h), cuts the map if an image leaves its domain,
    and checks f(x*h) = f(x)*f(h) on the pairs it completes, whole per
    generator.  The budget counts the generator images the levels try:
    more than ``budget`` raise BudgetExceeded naming ``label``.

    The maps found are exactly the homomorphisms within the domains.  One
    found keeps f(x*g) = f(x)*f(g) for every x and generator g, and so
    f(x*w) = f(x)*f(w) for every product w of generators, by induction on
    its length: f(x*(w*g)) = f((x*w)*g) = f(x*w)*f(g) = f(x)*f(w)*f(g) =
    f(x)*f(w*g).  Every element is such a product.  Conversely a
    homomorphism keeps each of these laws, maps the powers of a generator
    to the powers of its image, and its values on the generators force its
    value on every element along the tree.  The search order is not
    lexicographic, so the maps are sorted.
    """
    if not all(domains):
        return []
    allowed = [frozenset(d) for d in domains]
    candidates = []
    for g, (powers, back), _, _ in plan:
        cands = []
        for v in domains[g]:
            values = [v]
            for y in powers[1:]:
                w = target[values[-1]][v]
                if w not in allowed[y]:
                    break
                values.append(w)
            else:
                if target[values[-1]][v] == values[back]:
                    cands.append(v)
        candidates.append(cands)
    columns = tuple(zip(*target))  # columns[b][a] = a*b
    image = [0] * len(allowed)
    position = [0] * len(plan)
    last = len(plan) - 1
    results: list[tuple[int, ...]] = []
    nodes = 0
    i = 0
    while i >= 0:
        g, _, tree, checks = plan[i]
        cands = candidates[i]
        if position[i] == len(cands):
            position[i] = 0
            i -= 1
            continue
        image[g] = cands[position[i]]
        position[i] += 1
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget, label)
        for y, x, h in tree:
            v = target[image[x]][image[h]]
            if v not in allowed[y]:
                break
            image[y] = v
        else:
            for h, xs, ps in checks:
                if tuple(map(columns[image[h]].__getitem__, xs(image))) != ps(image):
                    break
            else:
                if i == last:
                    results.append(tuple(image))
                else:
                    i += 1
    results.sort()
    return results


def dual_chain_ranks(
    source: Sequence[Sequence[int]],
    k: int,
    *,
    budget: int,
    label: str,
) -> list[tuple[int, ...]]:
    """Every r: source -> range(k) with r(a*b) >= min(r(a), r(b)), in lexicographic order.

    The ranks form a chain whose product is min, so the maps are the dual
    premorphisms into that chain; no chain table is read, so a long chain
    needs none.  Elements get ranks in turn, each tried from 0 up, and each
    product a*b = p is checked once a, b and p all have ranks.  Two kinds of
    check cut nothing and are not listed: one with p = a or p = b, which
    every assignment passes, and that of (a, b) with a > b when b*a = a*b,
    which is the check of (b, a).  Trying more than ``budget`` ranks (nodes)
    raises BudgetExceeded naming ``label``.  The rank kept per element
    replaces recursion, so depth is unbounded.
    """
    n = len(source)
    # checks[i]: the products whose three elements all have ranks once r(i) is set
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        row = source[a]
        for b in range(n):
            p = row[b]
            if p != a and p != b and (b >= a or source[b][a] != p):
                checks[max(a, b, p)].append((a, b, p))

    rank = [-1] * n
    results: list[tuple[int, ...]] = []
    nodes = 0
    i = 0
    while i >= 0:
        r = rank[i] + 1
        if r == k:
            rank[i] = -1
            i -= 1
            continue
        rank[i] = r
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget, label)
        for a, b, p in checks[i]:
            ra = rank[a]
            rb = rank[b]
            if rank[p] < (ra if ra < rb else rb):
                break
        else:
            if i + 1 == n:
                results.append(tuple(rank))
            else:
                i += 1
    return results
