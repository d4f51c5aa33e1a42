"""Finite inverse monoids with their full derived structure.

Validation computes once, exhaustively, and caches on the value what the
rest of the package reads about an inverse monoid: idempotents, the natural
partial order as bitsets, the least group congruence with its group
quotient, Green's H, per-class order maxima, and the F-inverse and Clifford
predicates.  Only the monoid axioms and the inverses are checked; the
structure is computed, not checked, as in an inverse monoid each part of it
is a theorem (`_derive`).  Two queries build their answer on each call from
what is kept: `natural_order` its Boolean matrix from the bitsets, and
`green_relations` Green's R and L from the table and the inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import and_, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    DEFAULT_BUDGET,
    CoverageFailure,
    EmptyChain,
    NoInverse,
    NonUniqueInverse,
    NotDualPremorphism,
    NotFInverse,
    NotHomomorphism,
    NotIdempotentSeparating,
    NotSurjective,
    NotUnital,
    OutOfRange,
    Unsorted,
)
from .groups import (
    FiniteGroup,
    _Table,
    _check_associative,
    _check_closed,
    _generators,
    is_group_homomorphism,
)
from .search import generated_maps, tuple_getter


@dataclass(frozen=True)
class Partition:
    """An ordered partition of 0..n-1: classes sorted by least member.

    ``from_class_of`` needs no sort: its buckets fill in ascending x, and
    each is made, in dict order, at its least member.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @staticmethod
    def from_class_of(class_ids: Sequence[int]) -> "Partition":
        buckets: dict[int, list[int]] = {}
        for x, c in enumerate(class_ids):
            buckets.setdefault(c, []).append(x)
        position = {c: i for i, c in enumerate(buckets)}
        classes = tuple(map(tuple, buckets.values()))
        return Partition(classes, tuple(map(position.__getitem__, class_ids)))


@dataclass(frozen=True)
class DerivedStructure:
    """Structure derived exhaustively from an inverse monoid table.

    ``above`` is the natural partial order, one bitset per element: bit b of
    ``above[a]`` is set iff a <= b.  ``sigma.class_of`` projects each
    element onto its class in ``sigma_quotient``.  Of Green's relations
    only H is kept, which every level of a cover reads; `green_relations`
    builds R and L when asked.
    """

    idempotents: tuple[int, ...]
    above: tuple[int, ...]
    sigma: Partition
    sigma_quotient: FiniteGroup
    sigma_maxima: tuple[Optional[int], ...]
    green_h: Partition
    f_inverse: bool
    clifford: bool


class FiniteInverseMonoid(_Table):
    """A finite inverse monoid: labels, table, unit, and inverse table.

    Built by :func:`validate_inverse_monoid`.  The ``derived`` attribute
    holds the cached :class:`DerivedStructure`.  The checks of a law on
    products read one row or column per generator: homomorphisms and the
    round trip of ``premorphism_from_cover``.
    """

    __slots__ = ("unit", "inverse", "derived")

    def __init__(self, names, table, unit, inverse, derived, generators, facts):
        self.names = tuple(names)
        self.table = table
        self.generators = tuple(generators)
        self.facts = facts
        self.unit = unit
        self.inverse = tuple(inverse)
        self.derived = derived

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteInverseMonoid):
            return NotImplemented
        return (
            self.names == other.names
            and self.table == other.table
            and self.unit == other.unit
        )

    def __hash__(self) -> int:
        return hash((self.names, self.table, self.unit))

    def __repr__(self) -> str:
        return f"FiniteInverseMonoid(order={self.n}, unit={self.names[self.unit]!r})"


def _check_table(names, table, unit) -> list[int]:
    """Check unit and associativity of a closed table of row tuples; return
    a generating set."""
    n = len(names)
    if not 0 <= unit < n:
        raise NotUnital(f"unit index {unit} out of range")
    for x in range(n):
        if table[unit][x] != x or table[x][unit] != x:
            raise NotUnital(f"{names[unit]} is not a unit at {names[x]}", witness=x)
    return _check_associative(names, table)


def _generalized_inverses(names, table, generators):
    """The inverse of each element, or NoInverse or NonUniqueInverse.

    ``generators`` generate the associative table.  An idempotent generator
    is taken as its own inverse, each other generator's first inverse is
    found by a scan of its row and column, and the rest are propagated
    along the right Cayley graph, (x*g)^-1 = g^-1 * x^-1, from the
    generators.  Each candidate is then checked to be an inverse of its
    element, x y x = x and y x y = y, and the idempotents to commute, in
    O(n |gens| + |E|^2) steps.  Both pass only in an inverse semigroup: one in which every
    element has an inverse is inverse iff its idempotents commute (Howie,
    *Fundamentals of Semigroup Theory*, 1995, Thm 5.1.1), and there each
    inverse is unique, so the candidates are the inverses.  In an inverse
    semigroup the propagation finds them, as (x*g)^-1 = g^-1 x^-1 holds
    there.  So the checks fail exactly when `_inverses_by_scan` raises, and
    on failure that scan runs, to raise its error with its witness.

    The array returned is x -> x^-1 of an inverse monoid, so it is an
    involution that reverses products, (x^-1)^-1 = x and (xy)^-1 =
    y^-1 x^-1 (Howie, 5.1), and no caller checks either law again.  It is
    returned in two ways only: after both checks above pass, which make the
    monoid inverse by Thm 5.1.1 and each candidate its element's unique
    inverse; or from `_inverses_by_scan`, which returns only when every
    element has exactly one inverse, and so the monoid is inverse by
    definition.
    """
    n = len(names)
    inverse = [-1] * n
    for g in generators:
        row = table[g]
        if row[g] == g:  # an idempotent is its own inverse
            inverse[g] = g
            continue
        y = next(
            (y for y in range(n) if table[row[y]][g] == g and table[table[y][g]][y] == y),
            None,
        )
        if y is None:
            return _inverses_by_scan(names, table)
        inverse[g] = y
    todo = list(generators)
    while todo:
        x = todo.pop()
        row = table[x]
        for g in generators:
            xg = row[g]
            if inverse[xg] < 0:
                inverse[xg] = table[inverse[g]][inverse[x]]
                todo.append(xg)
    idem = [e for e in range(n) if table[e][e] == e]
    inverses_hold = -1 not in inverse and all(
        table[table[x][y]][x] == x and table[table[y][x]][y] == y
        for x, y in enumerate(inverse)
    )
    if inverses_hold and all(
        list(map(table[e].__getitem__, idem)) == [table[f][e] for f in idem] for e in idem
    ):
        return inverse
    return _inverses_by_scan(names, table)


def _inverses_by_scan(names, table):
    """The inverse of each element, by trying every y for every x."""
    n = len(names)
    inverse = []
    for x in range(n):
        found = [
            y
            for y in range(n)
            if table[table[x][y]][x] == x and table[table[y][x]][y] == y
        ]
        if not found:
            raise NoInverse(f"element {names[x]} has no generalized inverse", witness=x)
        if len(found) > 1:
            raise NonUniqueInverse(
                f"element {names[x]} has generalized inverses "
                f"{names[found[0]]} and {names[found[1]]}",
                witness=(x, found[0], found[1]),
            )
        inverse.append(found[0])
    return inverse


def _members(bits: int):
    """The indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _class_names(names, reps) -> list[str]:
    """Labels of the sigma-classes, by their least members: [rep]."""
    return [f"[{names[r]}]" for r in reps]


def _natural_order(cols, dom):
    """The natural order from element positions, one bitset per element.

    a <= b iff a = b*e for some idempotent e, iff b*(a^-1 a) = a, so with
    ``dom[a]`` = a^-1 a the b above a are the positions of a in the column
    ``cols[dom[a]]``.  ``count`` and one ``index`` per hit find them, with
    no comparison per entry in Python, and bit b of bitset a is set iff b
    is one of them.
    """
    above = []
    for a, d in enumerate(dom):
        col = cols[d]
        up = 0
        b = -1
        for _ in range(col.count(a)):
            b = col.index(a, b + 1)
            up |= 1 << b
        above.append(up)
    return tuple(above)


def _derive(names, rows, inverse) -> DerivedStructure:
    """Derive the structure of an inverse monoid, with no check of its own.

    ``rows`` is the table as a tuple of row tuples and ``inverse`` its
    x -> x^-1.  Both come from an inverse monoid: `_generalized_inverses`
    returns its array only for one.  In an inverse monoid the natural order
    is a partial order, sigma is a congruence and M/sigma a group (Lawson,
    *Inverse Semigroups*, 1998, 1.4 and 2.4; Howie, *Fundamentals of
    Semigroup Theory*, 1995, 5.1-5.3), so none of these is checked again;
    the tests compare each structure with its definition.

    Every a^-1 a is idempotent, so columns are built only at the
    idempotents: the natural order (`_natural_order`), sigma and the
    Clifford test read nothing else.

    The least group congruence, x ~ y iff x*e = y*e for some idempotent e,
    is the kernel of x -> x*z, with z the product of all idempotents, the
    least one.  If x*e = y*e then x*z = x*(e*z) = (x*e)*z = (y*e)*z = y*z,
    as z = e*z; conversely z is itself a witness.  So sigma is read off the
    one column at z.  The quotient table is read by row lookups, the rows
    of the class representatives at the representatives, mapped through
    the classes; its identity is the class of z, and the inverse of the
    class of r is the class of r^-1.

    The maximum of a class is the one element above every member, if any:
    anything above a member a lies in the class of a, since b*(a^-1 a) = a
    = a*(a^-1 a), and the order is antisymmetric.
    """
    n = len(names)
    idem = tuple(x for x in range(n) if rows[x][x] == x)
    dom = [rows[inverse[a]][a] for a in range(n)]  # a^-1 a
    ran = [rows[a][inverse[a]] for a in range(n)]  # a a^-1
    cols = {e: tuple(map(itemgetter(e), rows)) for e in idem}
    above = _natural_order(cols, dom)

    z = reduce(lambda e, f: rows[e][f], idem)
    sigma = Partition.from_class_of(cols[z])
    class_of = sigma.class_of
    reps = [cls[0] for cls in sigma.classes]
    # the rows of the representatives at the representatives, as classes
    at_reps = tuple_getter(reps)
    qtable = tuple(tuple(map(class_of.__getitem__, at_reps(rows[a]))) for a in reps)
    inverses = [class_of[inverse[r]] for r in reps]
    quotient = FiniteGroup(_class_names(names, reps), qtable, class_of[z], inverses, _generators(qtable))

    maxima = []
    for cls in sigma.classes:
        greatest = reduce(and_, map(above.__getitem__, cls))
        maxima.append(greatest.bit_length() - 1 if greatest else None)

    # Green's H: a H b iff aa^-1 = bb^-1 and a^-1a = b^-1b
    green_h = Partition.from_class_of([ran[a] * n + dom[a] for a in range(n)])

    f_inverse = all(m is not None for m in maxima)
    clifford = all(rows[e] == cols[e] for e in idem)

    return DerivedStructure(
        idempotents=idem,
        above=above,
        sigma=sigma,
        sigma_quotient=quotient,
        sigma_maxima=tuple(maxima),
        green_h=green_h,
        f_inverse=f_inverse,
        clifford=clifford,
    )


def validate_inverse_monoid(
    names: Sequence[str], table: Sequence[Sequence[int]], unit: int
) -> FiniteInverseMonoid:
    """Validate monoid axioms and unique generalized inverses, then derive structure.

    Raises NotClosed, NotUnital, NotAssociative, NoInverse or NonUniqueInverse;
    the derived structure is computed exhaustively and cached on the result,
    which gets a new, empty ``facts`` dict.  The closure check reads the
    table as given; then its rows are made tuples, once, and become the
    monoid's table.
    """
    _check_closed(names, table)
    table = tuple(map(tuple, table))
    generators = _check_table(names, table, unit)
    inverse = _generalized_inverses(names, table, generators)
    derived = _derive(names, table, inverse)
    return FiniteInverseMonoid(names, table, unit, inverse, derived, generators, {})


def _relabeled(monoid: FiniteInverseMonoid, names: Sequence[str]) -> FiniteInverseMonoid:
    """The validated ``monoid`` under new labels, with no check re-run.

    Table, unit, inverse, generators, derived structure and the ``facts``
    dict are kept, the dict itself, not a copy; the sigma-quotient is
    relabeled as `_derive` labels it, by the new names of its class
    representatives, and keeps its own ``facts`` likewise.  Sound only where
    the caller knows that the validation, run on ``names``, would pass and
    derive the same structure.
    """
    d = monoid.derived
    q = d.sigma_quotient
    reps = [cls[0] for cls in d.sigma.classes]
    quotient = FiniteGroup(_class_names(names, reps), q.table, q.identity, q.inverses, q.generators)
    quotient.facts = q.facts
    derived = DerivedStructure(
        d.idempotents, d.above, d.sigma, quotient, d.sigma_maxima, d.green_h, d.f_inverse, d.clifford
    )
    return FiniteInverseMonoid(
        names, monoid.table, monoid.unit, monoid.inverse, derived, monoid.generators, monoid.facts
    )


# -- structure queries ---------------------------------------------------------

def natural_order(monoid: FiniteInverseMonoid) -> tuple[tuple[bool, ...], ...]:
    """The natural partial order as a boolean matrix (rel[x][y] iff x <= y).

    Built on each call from the bitsets the monoid keeps (``derived.above``).
    """
    n = monoid.n
    rows = []
    for bits in monoid.derived.above:
        row = [False] * n
        for b in _members(bits):
            row[b] = True
        rows.append(tuple(row))
    return tuple(rows)


def sigma(monoid: FiniteInverseMonoid):
    """Least group congruence: (partition, quotient group, projection array)."""
    d = monoid.derived
    return d.sigma, d.sigma_quotient, d.sigma.class_of


def green_relations(monoid: FiniteInverseMonoid):
    """Green's relations as (H, R, L) partitions.

    a R b iff aa^-1 = bb^-1 (equal principal right ideals) and a L b iff
    a^-1a = b^-1b (equal principal left ideals); H is their intersection.
    H is kept on the monoid; R and L are built on each call from its table
    and inverses.
    """
    table, inverse = monoid.table, monoid.inverse
    green_r = Partition.from_class_of([table[a][inverse[a]] for a in range(monoid.n)])
    green_l = Partition.from_class_of([table[inverse[a]][a] for a in range(monoid.n)])
    return monoid.derived.green_h, green_r, green_l


def is_f_inverse(monoid: FiniteInverseMonoid):
    """(flag, per-class maxima): flag iff every congruence class has a greatest element."""
    d = monoid.derived
    return d.f_inverse, d.sigma_maxima


def is_clifford(monoid: FiniteInverseMonoid) -> bool:
    """True iff every idempotent is central."""
    return monoid.derived.clifford


# -- chain monoids --------------------------------------------------------------

def chain_monoid(values: Sequence[Fraction]) -> FiniteInverseMonoid:
    """The finite chain of values in [0,1] under min, unit = greatest value."""
    vals = list(values)
    if not vals:
        raise EmptyChain("a chain monoid needs at least one value")
    for v in vals:
        if not 0 <= v <= 1:
            raise OutOfRange(f"chain value {v} outside [0, 1]", witness=v)
    if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
        raise Unsorted("chain values must be strictly increasing")
    names = [str(v) for v in vals]
    n = len(vals)
    table = [[min(a, b) for b in range(n)] for a in range(n)]
    return validate_inverse_monoid(names, table, unit=n - 1)


# -- homomorphism predicates -----------------------------------------------------

def is_monoid_homomorphism(
    f: Sequence[int], source: FiniteInverseMonoid, target: FiniteInverseMonoid
) -> bool:
    """True iff f respects products and sends unit to unit."""
    return is_group_homomorphism(f, source, target) and f[source.unit] == target.unit


def is_idempotent_separating(
    f: Sequence[int], source: FiniteInverseMonoid, target: FiniteInverseMonoid
) -> bool:
    """True iff f is injective on the idempotents of the source."""
    idem = source.derived.idempotents
    return len({f[e] for e in idem}) == len(idem)


def is_surjective(
    f: Sequence[int], source: FiniteInverseMonoid, target: FiniteInverseMonoid
) -> bool:
    return set(f) == set(range(target.n))


def check_projection(
    monoid: FiniteInverseMonoid, base: FiniteInverseMonoid, projection: Sequence[int]
) -> None:
    """Raise NotFInverse, NotHomomorphism, NotSurjective or NotIdempotentSeparating."""
    if not monoid.derived.f_inverse:
        raise NotFInverse("cover monoid has a class without greatest element")
    if not is_monoid_homomorphism(projection, monoid, base):
        raise NotHomomorphism("projection is not a monoid homomorphism")
    if not is_surjective(projection, monoid, base):
        raise NotSurjective("projection misses part of the base monoid")
    if not is_idempotent_separating(projection, monoid, base):
        raise NotIdempotentSeparating("projection merges idempotents")


def enumerate_monoid_homomorphisms(
    source: FiniteInverseMonoid,
    target: FiniteInverseMonoid,
    *,
    allowed: Sequence[Iterable] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All monoid homomorphisms source -> target, lexicographic by image tuple.

    ``allowed``, if given, holds the candidate images of each source
    element, and is the one way to restrict images: the cover search passes
    the target's maxima through it.  A wrong length, or an image outside
    the target, raises ValueError.  Only the images of ``source.generators``
    are searched, and the rest of each map is forced (`generated_maps`).
    The budget counts generator images tried: more than ``budget`` raise
    BudgetExceeded.
    """
    n = source.n
    if allowed is None:
        domains = [list(range(target.n)) for _ in range(n)]
    else:
        if len(allowed) != n:
            raise ValueError("allowed must give a candidate set per source element")
        domains = [sorted(set(a)) for a in allowed]
        if any(d and (d[0] < 0 or d[-1] >= target.n) for d in domains):
            raise ValueError("allowed images must be elements of the target")
    domains[source.unit] = [v for v in domains[source.unit] if v == target.unit]
    return generated_maps(
        source.plan, target.table, domains, budget=budget, label="monoid homomorphism nodes"
    )


# -- dual premorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class DualPremorphism:
    """A certified map psi from a group into an inverse monoid.

    Certification (done by :func:`validate_dual_premorphism`) covers
    inverse-compatibility, the product inequality psi(xy) >= psi(x)psi(y),
    and the coverage condition: every monoid element lies below some image.
    ``coverage_witness[u]`` is a group element h with u <= psi(h).
    """

    group: FiniteGroup
    monoid: FiniteInverseMonoid
    psi: tuple[int, ...]
    coverage_witness: tuple[int, ...]


def validate_dual_premorphism(
    group: FiniteGroup, monoid: FiniteInverseMonoid, psi: Sequence[int]
) -> DualPremorphism:
    """Certify psi: group -> monoid as a dual premorphism with coverage.

    One pass over the group rows, x in order, checks psi(x^-1) = psi(x)^-1
    and then psi(x)psi(y) <= psi(xy) for every y: the row of psi(x) in the
    table gives each product psi(x)psi(y), whose row of the order matrix
    `natural_order` is read at psi(xy).  A group row is a permutation, so
    the first failing y is found from its product xy.  The coverage witness
    of u is the first h whose image lies above u, found on the row of u.
    The matrix is built once per call: an index into a row of bools costs
    less than a bit test in the loop over all pairs.
    """
    if len(psi) != group.n or any(not 0 <= v < monoid.n for v in psi):
        raise NotDualPremorphism("psi must assign a monoid element to every group element")
    psi = tuple(psi)
    leq = natural_order(monoid)
    names = group.names
    for x, row in enumerate(group.table):
        if psi[group.inverses[x]] != monoid.inverse[psi[x]]:
            raise NotDualPremorphism(f"psi({names[x]}^-1) != psi({names[x]})^-1", witness=x)
        products = monoid.table[psi[x]]
        for py, xy in zip(psi, row):
            if not leq[products[py]][psi[xy]]:
                y = row.index(xy)
                raise NotDualPremorphism(
                    f"psi({names[x]}*{names[y]}) is not above psi({names[x]})*psi({names[y]})",
                    witness=(x, y),
                )
    witnesses = []
    for u, row in enumerate(leq):
        h = next(compress(range(group.n), map(row.__getitem__, psi)), None)
        if h is None:
            raise CoverageFailure(
                f"monoid element {monoid.names[u]} is below no psi image", witness=u
            )
        witnesses.append(h)
    return DualPremorphism(group, monoid, psi, tuple(witnesses))
