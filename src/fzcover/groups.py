"""Finite groups as validated Cayley tables over dense indices 0..n-1.

All algebra runs on integer indices; human-readable labels are carried
alongside for reports and error messages.
"""

from __future__ import annotations

from itertools import permutations
from operator import eq, itemgetter
from typing import Iterable, Sequence

from .errors import (
    DEFAULT_BUDGET,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
)
from .search import generated_maps, generator_plan, tuple_getter


class _Table:
    """A validated table: labels, rows, a generating set and one memo.

    The base of `FiniteGroup` and `monoids.FiniteInverseMonoid`.  ``table``
    is kept as the validator makes it, a tuple of row tuples, and
    ``generators`` is the generating set its associativity check found,
    picked greedily from the highest index down; the checks of a law on
    products (homomorphisms, Light's test) read one row per generator.

    ``facts`` is the table's one memo: results that the table, the unit of
    a monoid and the further data in each key decide, and so the same
    whoever fills them in.  A relabeling (`monoids._relabeled`) keeps the
    table and hands the same dict on, not a copy, so a table and all its
    relabelings fill it once; it keeps the monoid's derived structure
    likewise, so they share one sigma-quotient with its own dict.  Two
    equal tables validated separately share nothing.  ``plan``, the
    `generator_plan` of the table and generators, is kept there under
    ("plan",) on first use.  `cover.build_cover` keeps
    a group's validated covers and bases there, and `cover.cover_report`
    and `cover.premorphism_from_cover` keep a cover monoid's report and
    round trip; each writer's docstring argues why its keys decide its
    results.
    """

    # each subclass sets these itself: a base __init__ through super() made
    # `monoids._relabeled`, run per cover of a grid listing, a sixth slower
    __slots__ = ("names", "table", "generators", "facts")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def plan(self) -> tuple:
        plan = self.facts.get(("plan",))
        if plan is None:
            plan = self.facts[("plan",)] = generator_plan(self.table, self.generators)
        return plan

    def index(self, label: str) -> int:
        return self.names.index(label)


class FiniteGroup(_Table):
    """A finite group: labels, Cayley table, identity and inverse table.

    Instances are produced by :func:`validate_group` (or the built-in family
    constructors) and are immutable afterwards; share them freely.  The
    hash, of names and table, is computed on the first ``hash`` call and
    kept, since every cache key that holds a group hashes it.
    """

    __slots__ = ("identity", "inverses", "_hash")

    def __init__(self, names, table, identity, inverses, generators):
        self.names = tuple(names)
        self.table = table
        self.generators = tuple(generators)
        self.facts = {}
        self.identity = identity
        self.inverses = tuple(inverses)
        self._hash = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.names, self.table))
        return self._hash

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


def _generators(rows) -> list[int]:
    """A generating set of a closed table, picked greedily from the highest index down.

    Each element not yet reached becomes a generator.  ``reached`` is closed
    under right multiplication by the generators: a new g pushes g and m*g
    for each member m, and each newly reached member is multiplied by every
    generator, at most 2 n |gens| products.  In an associative table the
    subsemigroup generated by S, all products s1*...*sk, is the closure of S
    under x -> x*s, so the picks are those of a closure under all products.
    Descending order keeps the set small: the least index is the identity
    of every built-in group and the least idempotent of every cover, and
    neither generates anything, while the high indices of a cover lie at
    the top of its order and generate most of it.
    """
    reached: set[int] = set()
    gens: list[int] = []
    for g in reversed(range(len(rows))):
        if g in reached:
            continue
        gens.append(g)
        todo = [g, *(rows[m][g] for m in reached)]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo.extend(map(rows[x].__getitem__, gens))
    return gens


def _check_associative(names: Sequence[str], rows: Sequence[tuple[int, ...]]) -> list[int]:
    """Return a generating set of the table, or raise NotAssociative.

    The table must already be closed, its rows tuples.  Light's test
    (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
    1.2): the elements g with
    (x*g)*y = x*(g*y) for all x, y form a submagma, so the table is
    associative iff every generator of a generating set is such an element.
    They need only generate it under right multiplication, as a submagma
    is closed under it.  That costs O(n^2 |gens|).  For each generator g,
    x in order, the row of x*g, (x*g)*y over y with x*g read as
    ``rows[x][g]``, is compared with the row of x read at the row of g,
    x*(g*y) over y: lazily, one pair of whole rows at a time, so ``all``
    stops at the first pair that differs and no list of rows is built.
    Only when a pair differs are the pairs (a, b) scanned in order for the
    first failing c, which is named as the witness.
    """
    n = len(rows)
    gens = _generators(rows)
    for g in gens:
        products = map(rows.__getitem__, map(itemgetter(g), rows))  # the row of x*g
        through_g = map(tuple_getter(rows[g]), rows)  # the row of x at the row of g
        if not all(map(eq, products, through_g)):
            break
    else:
        return gens
    for a in range(n):
        for b in range(n):
            left = rows[rows[a][b]]
            right = tuple_getter(rows[b])(rows[a])
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
    MissingInverse (with witness element).  The closure check reads the
    table as given; then its rows are made tuples, once, and become the
    group's table.
    """
    _check_closed(names, table)
    rows = tuple(map(tuple, table))
    generators = _check_associative(names, rows)
    n = len(names)
    # the first e whose row, and then whose column, is 0..n-1 as a whole
    ids = tuple(range(n))
    identity = next((e for e in range(n) if rows[e] == ids == tuple(r[e] for r in rows)), None)
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    inverses = []
    for x, row in enumerate(rows):
        # in a finite monoid x*y = e forces y*x = e: z -> y*z is one-to-one,
        # as x undoes it, so onto, and y*w = e gives x = x*y*w = w; so the
        # first y with x*y = e is the only candidate for the inverse
        y = row.index(identity) if identity in row else None
        if y is None or rows[y][x] != identity:
            raise MissingInverse(f"element {names[x]} has no inverse", witness=x)
        inverses.append(y)
    return FiniteGroup(names, rows, identity, inverses, generators)


# -- built-in families --------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, additive; names e, g, g2, ..."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [tuple((a + b) % n for b in range(n)) for a in range(n)]
    return validate_group(names, table)


def klein_four() -> FiniteGroup:
    """The Klein four-group on names e, a, b, c."""
    names = ["e", "a", "b", "c"]
    table = [
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
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
    """Symmetric group on n points; product s*t applies t first, then s.

    S0, the permutations of no points, is the trivial group, as is S1.
    """
    if n < 0:
        raise ValueError("symmetric group needs n >= 0 points")
    elems = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    names = [_cycle_label(p) for p in elems]
    table = [
        tuple(index[tuple(s[t[i]] for i in range(n))] for t in elems)
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

    table = [tuple(times(a, b) for b in range(2 * n)) for a in range(2 * n)]
    return validate_group(names, table)


# -- subgroup and homomorphism predicates -------------------------------------

def is_subgroup(group: FiniteGroup, subset: Iterable[int]) -> bool:
    """True iff subset contains the identity and is closed under * and inverse.

    Closure is checked row by row: each member's row, read at the members,
    stops at the first product outside the subset.  In a finite group a
    subset closed under products is closed under inverses too, as x^-1 is
    a power of x.
    """
    s = frozenset(subset)
    if group.identity not in s:
        return False
    table = group.table
    for a in s:
        row = table[a]
        for b in s:
            if row[b] not in s:
                return False
    return True


def is_group_homomorphism(f: Sequence[int], source: FiniteGroup, target: FiniteGroup) -> bool:
    """True iff f(x*y) = f(x)*f(y) for all x, y (identity preservation follows).

    Also for inverse monoids.  As both tables are associative, the x with
    f(x*y) = f(x)*f(y) for all y are closed under products, so it is enough
    that each of ``source.generators`` is one; each is checked on its whole row.
    """
    if len(f) != source.n or min(f, default=0) < 0 or max(f, default=0) >= target.n:
        return False
    st = source.table
    tt = target.table
    image = f.__getitem__
    for g in source.generators:
        if list(map(image, st[g])) != list(map(tt[f[g]].__getitem__, f)):
            return False
    return True


def enumerate_group_homomorphisms(
    source: FiniteGroup, target: FiniteGroup, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All homomorphisms source -> target, in lexicographic order.

    Only the images of ``source.generators`` are searched, each anywhere in
    the target, and the rest of each map is forced (`generated_maps`); the
    identity must go to the identity.  The budget counts generator images
    tried: more than ``budget`` raise BudgetExceeded.
    """
    candidates = [
        [target.identity] if x == source.identity else range(target.n)
        for x in range(source.n)
    ]
    return generated_maps(
        source.plan, target.table, candidates, budget=budget, label="group homomorphism nodes"
    )
