"""The one search behind every homomorphism, isomorphism and fuzzy-subgroup
enumeration.

Callers differ only in the candidate images they allow for each element, and
in the test on each product: f(a*b) = f(a)*f(b) for a homomorphism, or
f(a*b) >= min(f(a), f(b)) for a dual premorphism into a chain of ranks, which
is how a fuzzy subgroup reads.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetExceeded


def product_preserving_maps(
    source: Sequence[Sequence[int]],
    target: Sequence[Sequence[int]],
    candidates: Sequence[Sequence[int]],
    *,
    budget: int,
    label: str,
    injective: bool = False,
    first: bool = False,
    _dual_chain: bool = False,
) -> list[tuple[int, ...]]:
    """Every map f with f(x) in candidates[x] and f(a*b) = f(a)*f(b).

    With sorted candidate lists the maps come in lexicographic order, as a
    brute-force filter over all choices would list them.  ``injective`` skips
    images already used; ``first`` stops at the first map.  Each product
    a*b = p is checked once a, b and p all have images.  Examining more than
    ``budget`` candidate images (nodes) raises BudgetExceeded naming
    ``label``.  An explicit position per element replaces recursion, so depth
    is unbounded.

    With ``_dual_chain`` the images are integer ranks in a chain whose
    product is min, and the test is f(a*b) >= min(f(a), f(b)): the maps are
    the dual premorphisms into that chain.  ``target`` is then not read, so a
    long chain needs no table.
    """
    n = len(source)
    if not all(candidates):
        return []
    # checks[i]: the products whose three elements all have images once f(i) is set
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a in range(n):
        row = source[a]
        for b in range(n):
            p = row[b]
            checks[max(a, b, p)].append((a, b, p))

    image = [0] * n
    used = [False] * len(target)
    position = [0] * n
    results: list[tuple[int, ...]] = []
    nodes = 0
    i = 0
    while i >= 0:
        cands = candidates[i]
        if position[i] == len(cands):
            position[i] = 0
            i -= 1
            if i >= 0 and injective:
                used[image[i]] = False
            continue
        v = cands[position[i]]
        position[i] += 1
        if injective and used[v]:
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget, label)
        image[i] = v
        for a, b, p in checks[i]:
            if _dual_chain:
                fa = image[a]
                fb = image[b]
                if image[p] < (fa if fa < fb else fb):
                    break
            elif image[p] != target[image[a]][image[b]]:
                break
        else:
            if i + 1 == n:
                results.append(tuple(image))
                if first:
                    return results
            else:
                if injective:
                    used[v] = True
                i += 1
    return results
