"""Finite groups as validated Cayley tables over dense indices 0..n-1.

All algebra runs on integer indices; human-readable labels are carried
alongside for reports and error messages.
"""

from __future__ import annotations

from itertools import permutations
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    DEFAULT_BUDGET,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
)
from .search import product_preserving_maps


class FiniteGroup:
    """A finite group: labels, Cayley table, identity and inverse table.

    Instances are produced by :func:`validate_group` (or the built-in family
    constructors) and are immutable afterwards; share them freely.
    ``generators`` is the generating set the associativity check found,
    picked greedily from the highest index down; the checks of a law on
    products (homomorphisms, Light's test) read one row per generator.
    """

    __slots__ = ("names", "table", "identity", "inverses", "generators")

    def __init__(self, names, table, identity, inverses, generators):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        self.inverses = tuple(inverses)
        self.generators = tuple(generators)

    @property
    def n(self) -> int:
        return len(self.names)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def index(self, label: str) -> int:
        return self.names.index(label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.names, self.table))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.n}, names={list(self.names)})"


def _check_closed(names: Sequence[str], table: Sequence[Sequence[int]]) -> None:
    """Raise NotClosed, naming the first entry, row by row, that is no element index.

    Rows are iterated whole rather than indexed entry by entry; the column of
    a failing entry is found only on failure, as the first position holding
    that same object, since any earlier copy of it would have failed first.
    """
    n = len(names)
    if len(table) != n or any(len(row) != n for row in table):
        raise NotClosed(f"table must be {n}x{n} to match {n} element names")
    for a, row in enumerate(table):
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                b = next(b for b, w in enumerate(row) if w is v)
                raise NotClosed(
                    f"entry {names[a]}*{names[b]} = {v!r} is not an element index",
                    witness=(a, b),
                )


def _generators(rows, cols) -> list[int]:
    """A generating set of a closed table, picked greedily from the highest index down.

    Each element not yet in the closure of the generators so far becomes a
    generator.  ``members`` is that closure in order of discovery; the first
    ``done`` of them have been multiplied with each other on both sides.
    Descending order keeps the set small: the least index is the identity
    of every built-in group and the least idempotent of every cover, and
    neither generates anything, while the high indices of a cover lie at
    the top of its order and generate most of it.
    """
    members: list[int] = []
    inside: set[int] = set()
    gens = []
    done = 0
    for g in reversed(range(len(rows))):
        if g in inside:
            continue
        gens.append(g)
        members.append(g)
        inside.add(g)
        while done < len(members):
            a = members[done]
            done += 1
            earlier = members[:done]
            fresh = (
                set(map(rows[a].__getitem__, earlier))
                | set(map(cols[a].__getitem__, earlier))
            ) - inside
            members.extend(fresh)
            inside |= fresh
    return gens


def _check_associative(names: Sequence[str], table: Sequence[Sequence[int]]) -> list[int]:
    """Return a generating set of the table, or raise NotAssociative.

    The table must already be closed.  Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, 1961, 1.2): the elements g with
    (x*g)*y = x*(g*y) for all x, y form a submagma, so the table is
    associative iff every generator of a generating set is such an element.
    That costs O(n^2 |gens|); whole rows are compared at once.  Only when it
    fails are the pairs (a, b) scanned in order for the first failing c,
    which is named as the witness.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n < 2:  # a closed table on at most one element is associative
        return list(range(n))
    cols = list(zip(*rows))
    gens = _generators(rows, cols)
    if all(
        list(map(itemgetter(*rows[g]), rows)) == list(map(rows.__getitem__, cols[g]))
        for g in gens
    ):
        return gens
    for a in range(n):
        for b in range(n):
            left = rows[rows[a][b]]
            right = itemgetter(*rows[b])(rows[a])
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise NotAssociative(
                    f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})",
                    witness=(a, b, c),
                )
    return gens


def validate_group(names: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Check the group axioms exhaustively and return the validated group.

    The identity and the inverse table are computed here, never supplied.
    Raises NotClosed, NotAssociative (with witness triple), NoIdentity or
    MissingInverse (with witness element).
    """
    _check_closed(names, table)
    generators = _check_associative(names, table)
    n = len(names)
    rows = [tuple(row) for row in table]
    cols = list(zip(*rows))
    # the first e whose row and column are both 0..n-1, as whole rows
    ids = tuple(range(n))
    identity = next((e for e in range(n) if rows[e] == ids and cols[e] == ids), None)
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    inverses = []
    for x, row in enumerate(rows):
        # in an associative unital table a two-sided inverse is unique; the
        # first y with x*y = identity is the inverse if y*x = identity too,
        # and only otherwise are all y scanned, for a later one or none
        y = row.index(identity) if identity in row else None
        if y is None or cols[x][y] != identity:
            y = next(
                (y for y in range(n) if row[y] == identity and cols[x][y] == identity),
                None,
            )
        if y is None:
            raise MissingInverse(f"element {names[x]} has no inverse", witness=x)
        inverses.append(y)
    return FiniteGroup(names, table, identity, inverses, generators)


# -- built-in families --------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, additive; names e, g, g2, ..."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(names, table)


def klein_four() -> FiniteGroup:
    """The Klein four-group on names e, a, b, c."""
    names = ["e", "a", "b", "c"]
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    return validate_group(names, table)


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(i) for i in cycle) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points; product s*t applies t first, then s."""
    elems = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    names = [_cycle_label(p) for p in elems]
    table = [
        [index[tuple(s[t[i]] for i in range(n))] for t in elems]
        for s in elems
    ]
    return validate_group(names, table)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n vertices (rotations r_i, reflections s_i).

    r_k is i -> i+k and s_k is i -> k-i on vertices mod n, and a product
    applies its right factor first, so r_a r_b = r_(a+b), r_a s_b = s_(a+b),
    s_a r_b = s_(a-b) and s_a s_b = r_(a-b).  These rules give a group of
    order 2n for every n >= 1, also where n < 3 vertices cannot tell all
    2n symmetries apart: n = 1 gives C2 and n = 2 the Klein four-group.
    """
    if n < 1:
        raise ValueError("dihedral needs n >= 1 vertices")
    names = ["e"] + [f"r{k}" for k in range(1, n)] + [f"s{k}" for k in range(n)]

    def times(a: int, b: int) -> int:
        reflect_a, k_a = divmod(a, n)
        reflect_b, k_b = divmod(b, n)
        k = k_a - k_b if reflect_a else k_a + k_b
        return (reflect_a ^ reflect_b) * n + k % n

    table = [[times(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return validate_group(names, table)


# -- subgroup and homomorphism predicates -------------------------------------

def is_subgroup(group: FiniteGroup, subset: Iterable[int]) -> bool:
    """True iff subset contains the identity and is closed under * and inverse."""
    s = frozenset(subset)
    if group.identity not in s:
        return False
    return all(
        group.table[a][b] in s for a in s for b in s
    ) and all(group.inverses[a] in s for a in s)


def is_group_homomorphism(f: Sequence[int], source: FiniteGroup, target: FiniteGroup) -> bool:
    """True iff f(x*y) = f(x)*f(y) for all x, y (identity preservation follows).

    Also for inverse monoids.  As both tables are associative, the x with
    f(x*y) = f(x)*f(y) for all y are closed under products, so it is enough
    that each of ``source.generators`` is one; each is checked on its whole row.
    """
    if len(f) != source.n or any(not 0 <= v < target.n for v in f):
        return False
    st = source.table
    tt = target.table
    return all(
        list(map(f.__getitem__, st[g])) == list(map(tt[f[g]].__getitem__, f))
        for g in source.generators
    )


def enumerate_group_homomorphisms(
    source: FiniteGroup, target: FiniteGroup, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All homomorphisms source -> target, in lexicographic order.

    The identity goes to the identity, any other element anywhere; raises
    BudgetExceeded when more than ``budget`` candidate images are examined.
    """
    candidates = [
        [target.identity] if x == source.identity else list(range(target.n))
        for x in range(source.n)
    ]
    return product_preserving_maps(
        source.table, target.table, candidates, budget=budget, label="group homomorphism nodes"
    )
