"""Exhaustive generators: fuzzy subgroups over a value grid, subgroup chains,
and hom-sets on both sides of the embedding.

Two independent routes produce the fuzzy subgroups over a grid -- a filter
over all value assignments, run as the search for dual premorphisms into a
chain of integer ranks (`search.dual_chain_ranks`), so a partial assignment
that breaks an axiom is cut at once, and a constructive route through strictly
descending subgroup chains -- so each can serve as the oracle for the other.
The filter uses no subgroup lattice.  Both searches are iterative, so their
depth is not bounded by the stack.  Each hom-set is one search, with one
budget, that reads lam off each f or fstar found.  Everything returns lists
in a deterministic (lexicographic) order, and every generated object
re-passes its validator; generators never bypass validation.  A listed
fuzzy subgroup passes the axiom check on ranks that `validate_fuzzy` ends
in, `fuzzy._validate_ranks`, called with the ranks its route already
holds, so a listing neither converts, compares nor hashes a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from .cover import CoverMorphism, CoverTriple, validate_cover_morphism
from .errors import DEFAULT_BUDGET, BudgetExceeded, ValidationError
from .fuzzy import FuzzyMorphism, FuzzySubgroup, _validate_ranks, validate_fuzzy_morphism
from .groups import FiniteGroup, enumerate_group_homomorphisms, is_subgroup
from .monoids import enumerate_monoid_homomorphisms
from .search import dual_chain_ranks


@dataclass(frozen=True)
class ValueGrid:
    """A finite menu of membership values: sorted, within (0, 1], containing 1.

    The levels are converted to ``Fraction`` here, once, so a listing over
    the grid converts no value.
    """

    levels: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(map(Fraction, self.levels)))
        if not self.levels:
            raise ValidationError("a value grid needs at least one level")
        for v in self.levels:
            if not 0 < v <= 1:
                raise ValidationError(f"grid level {v} outside (0, 1]")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValidationError("grid levels must be strictly increasing")
        if self.levels[-1] != 1:
            raise ValidationError("a value grid must contain 1")

    @property
    def k(self) -> int:
        return len(self.levels)


def default_grid(k: int = 4) -> ValueGrid:
    """The k-level grid {1/k, 2/k, ..., 1}; k=4 gives {1/4, 1/2, 3/4, 1}."""
    return ValueGrid(tuple(Fraction(i, k) for i in range(1, k + 1)))


def enumerate_fuzzy_subgroups_filter(
    group: FiniteGroup, grid: ValueGrid, budget: int = DEFAULT_BUDGET
) -> list[FuzzySubgroup]:
    """All assignments group -> grid that satisfy both axioms.

    The axioms depend only on the order of the values, so the search runs
    over integer ranks r.  Such an r is a dual premorphism into the chain of
    ranks under min, r(xy) >= min(r(x), r(y)), and `dual_chain_ranks` lists
    those, element by element, cutting each prefix that breaks a product.  In
    a finite group that axiom implies r(x^-1) = r(x), because x^-1 is a power
    of x.  The survivors are those of a scan over every assignment, in the
    same lexicographic order.  Each r is a grid code; the codes it takes,
    in order, name its chain, and each code's position among them is its
    chain rank, on which `fuzzy._validate_ranks` checks both axioms.  The
    budget counts the nodes visited: more than ``budget`` ranks tried raise
    BudgetExceeded.

    Like every subgroup of ``group``, the listed ones share their covers'
    monoids through it (see `build_cover`).
    """
    maps = dual_chain_ranks(group.table, grid.k, budget=budget, label="fuzzy subgroup nodes")
    levels = grid.levels
    out = []
    for codes in maps:
        used = sorted(set(codes))
        out.append(_validate_ranks(group, [levels[c] for c in used], list(map(used.index, codes))))
    return out


def all_subgroups(group: FiniteGroup, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """Every subgroup as a sorted element tuple, ordered by (size, elements)."""
    n = group.n
    if 2 ** n > budget:
        raise BudgetExceeded(2 ** n, budget, "subsets")
    rest = [x for x in range(n) if x != group.identity]
    subgroups = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            subset = (group.identity,) + extra
            if is_subgroup(group, subset):
                subgroups.append(tuple(sorted(subset)))
    return sorted(subgroups, key=lambda s: (len(s), s))


def enumerate_subgroup_chains(
    group: FiniteGroup, budget: int = DEFAULT_BUDGET
) -> list[tuple[tuple[int, ...], ...]]:
    """All strictly descending subgroup chains starting at the whole group.

    Depth first, each chain listed before its extensions and the subgroups
    below its last member tried in ``all_subgroups`` order; a last-in,
    first-out list of index paths replaces recursion.  More than ``budget``
    chains raise BudgetExceeded.
    """
    subgroups = all_subgroups(group, budget)
    members = [frozenset(sub) for sub in subgroups]
    below = [[i for i in range(j) if members[i] < members[j]] for j in range(len(members))]
    chains: list[tuple[tuple[int, ...], ...]] = []
    # the whole group is the last of ``subgroups``; children go on in reverse,
    # so the first of them comes off next
    todo = [(len(subgroups) - 1,)]
    while todo:
        path = todo.pop()
        if len(chains) >= budget:
            raise BudgetExceeded(len(chains) + 1, budget, "chains")
        chains.append(tuple(subgroups[i] for i in path))
        todo.extend(path + (i,) for i in reversed(below[path[-1]]))
    return chains


def enumerate_fuzzy_subgroups_chain(
    group: FiniteGroup, grid: ValueGrid, budget: int = DEFAULT_BUDGET
) -> list[FuzzySubgroup]:
    """Fuzzy subgroups built from subgroup chains plus increasing value picks.

    Each descending chain G = H1 > H2 > ... > Hm paired with values
    v1 < ... < vm from the grid yields mu(x) = v_j for the deepest Hj
    containing x.  That depth is x's rank in the chain (v1, ..., vm), so each
    subgroup chain's depth array is built once and every pick of values
    names it; `fuzzy._validate_ranks` checks both axioms on those ranks.
    Returned in the same order as the filter route so the two
    lists can be compared directly: sorted by the grid index of each mu(x).
    As in the filter route, their covers share monoids through ``group``.
    """
    chains = enumerate_subgroup_chains(group, budget)
    k = grid.k
    levels = grid.levels
    keyed = []
    total = 0
    for chain in chains:
        m = len(chain)
        if m > k:
            continue
        # the chain descends, so x lies in H1, ..., Hj for its depth j - 1
        depth = [sum(x in sub for sub in chain) - 1 for x in range(group.n)]
        for picks in combinations(range(k), m):
            total += 1
            if total > budget:
                raise BudgetExceeded(total, budget, "chain assignments")
            code = tuple(map(picks.__getitem__, depth))
            keyed.append((code, _validate_ranks(group, [levels[i] for i in picks], depth)))
    # mu determines its grid indices, so no two keys are equal
    keyed.sort(key=itemgetter(0))
    return [fz for _, fz in keyed]


def enumerate_fuzzy_morphisms(
    source: FuzzySubgroup,
    target: FuzzySubgroup,
    budget: int = DEFAULT_BUDGET,
    *,
    group_homs: list | None = None,
) -> list[FuzzyMorphism]:
    """All morphisms source -> target, lexicographic by (f, lam).

    mu is onto its chain, so a group hom f forces lam(mu(x)) = mu'(f(x)).
    f gives one morphism when that lam is well defined (each rank meets one
    target rank), monotone and top-preserving, validated in full, and none
    otherwise.  The search reads the two groups, the ranks and the chain
    lengths, and a value only to word an error, so two pairs of objects
    with equal groups and ranks get equal (f, lam) arrays in the same order,
    each valid between either pair.

    ``group_homs``, when given, is Hom(source.group, target.group) as
    `enumerate_group_homomorphisms` lists it, and is only read: no group
    search runs and ``budget`` is not checked on one.  Otherwise that
    hom-set is searched with ``budget``.
    """
    if group_homs is None:
        group_homs = enumerate_group_homomorphisms(source.group, target.group, budget)
    ranks, target_ranks = source._rank, target._rank
    k1, top = len(source.chain), len(target.chain) - 1
    out = []
    for f in group_homs:
        forced = sorted(set(zip(ranks, map(target_ranks.__getitem__, f))))
        lam = tuple(v for _, v in forced)
        if len(lam) == k1 and list(lam) == sorted(lam) and lam[-1] == top:
            out.append(validate_fuzzy_morphism(source, target, f, lam))
    return out


def enumerate_cover_morphisms(
    source: CoverTriple, target: CoverTriple, budget: int = DEFAULT_BUDGET
) -> list[CoverMorphism]:
    """All cover morphisms source -> target, lexicographic by (lam, fstar).

    One search, with one budget, lists the monoid homomorphisms fstar
    (`enumerate_monoid_homomorphisms`), each sigma-class maximum sent to a
    maximum and the unit to the unit.  The source projection pi is onto, so
    pi'.fstar = lam.pi fixes lam: in every cover morphism lam(u) is
    pi'(fstar(t)) at the first t with pi(t) = u.  An fstar is kept when that
    lam commutes with the projections and keeps the maxima of the bases, so
    every cover morphism is kept.  Its lam is then a monoid homomorphism:
    lam(pi(a) pi(b)) = pi'(fstar(ab)) = lam(pi(a)) lam(pi(b)), and lam(1) =
    pi'(fstar(1)) = 1.  Each kept pair still passes the full validator.

    On covers of fuzzy subgroups every fstar is kept.  The target base is a
    chain, so pi'(s) = pi'(ss^-1); fstar keeps inverses; and tt^-1 =
    iota(pi(t)) with iota: u -> (u, e) a monoid homomorphism, so pi'.fstar =
    (pi'.fstar.iota).pi.  The one maximum of the source base is its top, the
    unit.  The filter matters only on bases that are not semilattices.
    """

    def maxima(monoid):
        return {m for m in monoid.derived.sigma_maxima if m is not None}

    source_max, target_max = maxima(source.monoid), sorted(maxima(target.monoid))
    everything = range(target.monoid.n)
    allowed = [target_max if t in source_max else everything for t in range(source.monoid.n)]
    pi, target_pi = source.projection, target.projection
    firsts = [pi.index(u) for u in range(source.base.n)]
    base_max, target_base_max = maxima(source.base), maxima(target.base)
    kept = []
    for fstar in enumerate_monoid_homomorphisms(
        source.monoid, target.monoid, allowed=allowed, budget=budget
    ):
        image = list(map(target_pi.__getitem__, fstar))
        lam = tuple(map(image.__getitem__, firsts))
        if list(map(lam.__getitem__, pi)) == image and target_base_max.issuperset(
            map(lam.__getitem__, base_max)
        ):
            kept.append((lam, fstar))
    return [validate_cover_morphism(source, target, fstar, lam) for lam, fstar in sorted(kept)]
