"""The category of fuzzy subgroups (G, mu, U) and their morphisms (f, lam).

Membership values are ``fractions.Fraction`` throughout; floating point is
banned from the core so that the defining inequalities and all order
computations are exact.  The value set U is always derived as the image of
mu, which makes mu surjective onto its chain by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import ge, itemgetter
from typing import NamedTuple, Sequence

from .errors import (
    AlgebraError,
    Axiom1Violation,
    Axiom2Violation,
    CommutationFailure,
    NotComposable,
    NotGroupHom,
    NotOrderPreserving,
    TopNotPreserved,
    ValueNotInChain,
    ValueOutOfRange,
)
from .groups import FiniteGroup, is_group_homomorphism, is_subgroup
from .monoids import (
    DualPremorphism,
    FiniteInverseMonoid,
    chain_monoid,
    validate_dual_premorphism,
)


class FuzzySubgroup:
    """A validated triple: group, membership map, and its value chain.

    ``chain`` is the sorted tuple of distinct values of ``mu`` (the set U);
    ``top`` is its greatest element, which always equals mu(identity).
    ``mu_index(x)`` gives the chain index of mu(x), as the validator found it.

    ``base`` is the validated chain monoid (U, min, top) of ``chain``, built
    anew on each read; the subgroup holds no monoid, and its cover's are
    shared through its group.  The hash, of (group, mu), is computed on the
    first ``hash`` call and kept.
    """

    __slots__ = ("group", "mu", "chain", "top", "_rank", "_hash")

    def __init__(self, group: FiniteGroup, mu, chain, ranks):
        self.group = group
        self.mu = tuple(mu)
        self.chain = tuple(chain)
        self.top = self.chain[-1]
        self._rank = tuple(ranks)
        self._hash = None

    @property
    def base(self) -> FiniteInverseMonoid:
        """The chain monoid of ``chain``, validated on every read."""
        return chain_monoid(self.chain)

    @property
    def n(self) -> int:
        return self.group.n

    def chain_index(self, value: Fraction) -> int:
        """Position of value in the chain; raises ValueNotInChain."""
        try:
            return self.chain.index(value)
        except ValueError:
            raise ValueNotInChain(f"value {value} is not taken by mu", witness=value)

    def mu_index(self, x: int) -> int:
        """Chain index of mu(x)."""
        return self._rank[x]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySubgroup):
            return NotImplemented
        return self.group == other.group and self.mu == other.mu

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.group, self.mu))
        return self._hash

    def __repr__(self) -> str:
        vals = ", ".join(f"{n}={v}" for n, v in zip(self.group.names, self.mu))
        return f"FuzzySubgroup({vals})"


def validate_fuzzy(group: FiniteGroup, mu: Sequence[Fraction]) -> FuzzySubgroup:
    """Check the two fuzzy subgroup axioms and derive the value chain.

    Raises ValueOutOfRange, Axiom1Violation (witness pair) or Axiom2Violation
    (witness element).  The chain and its top are derived, never supplied.
    The axioms depend only on the order of the values, so they are checked
    on each value's rank in the chain; the values are read only to word an
    error.

    Values drawn from a grid are a few objects shared by many elements, so
    each distinct value object is converted (when it is not already a
    ``Fraction``) and ranked once, by one sort of those objects, and the
    elements look their value and rank up by the object's ``id``.  No value
    is hashed.  Equal values held in different objects merge in the chain.
    ``mu`` is first copied into a list, which holds its objects alive, so no
    two of them share an ``id`` even when the sequence builds a new object
    on each access.

    The first axiom is checked one group row at a time: the ranks of the
    row's products against the rank row clamped at the rank of x.  Only on
    a failure of either axiom are the pairs scanned in order, to name the
    first failing one.  Once both hold, mu(identity) is the top of the
    chain with no check: mu(e) = mu(x x^-1) >= min(mu(x), mu(x^-1)) = mu(x).
    """
    n = group.n
    if len(mu) != n:
        raise ValueOutOfRange(f"mu must assign a value to each of {n} elements")
    mu = list(mu)
    ids = list(map(id, mu))
    objects = dict(zip(ids, mu))
    exact = {i: v if type(v) is Fraction else Fraction(v) for i, v in objects.items()}
    values = list(map(exact.__getitem__, ids))
    # one walk over the distinct objects in order of value builds the chain
    # and ranks each object; equal values in different objects merge
    chain = []
    rank_of = {}
    for i, v in sorted(exact.items(), key=itemgetter(1)):
        if not chain or v != chain[-1]:
            chain.append(v)
        rank_of[i] = len(chain) - 1
    if not 0 <= chain[0] <= chain[-1] <= 1:
        x = next(x for x, v in enumerate(values) if not 0 <= v <= 1)
        raise ValueOutOfRange(
            f"mu({group.names[x]}) = {values[x]} outside [0, 1]", witness=x
        )
    ranks = list(map(rank_of.__getitem__, ids))
    table = group.table
    invs = group.inverses
    clamped = [[r if r < u else u for r in ranks] for u in range(len(chain))]
    if list(map(ranks.__getitem__, invs)) != ranks or not all(
        all(map(ge, map(ranks.__getitem__, row), clamped[rx])) for row, rx in zip(table, ranks)
    ):
        for x in range(n):
            rx = ranks[x]
            if ranks[invs[x]] != rx:
                raise Axiom2Violation(
                    f"mu({group.names[x]}^-1) = {values[invs[x]]} "
                    f"!= mu({group.names[x]}) = {values[x]}",
                    witness=x,
                )
            row = table[x]
            for y in range(n):
                if ranks[row[y]] < min(rx, ranks[y]):
                    raise Axiom1Violation(
                        f"mu({group.names[x]}*{group.names[y]}) = "
                        f"{values[row[y]]} < min bound {min(values[x], values[y])}",
                        witness=(x, y),
                    )
    return FuzzySubgroup(group, values, chain, ranks)


def level_subset(fz: FuzzySubgroup, u: Fraction) -> frozenset[int]:
    """The level subset at u: all elements with mu >= u.  Always a subgroup.

    mu(x) >= u iff the rank of mu(x) is at least the rank of u in the chain.
    """
    u = Fraction(u)
    rank = fz.chain_index(u)
    subset = frozenset(compress(range(fz.n), map(rank.__le__, fz._rank)))
    if not is_subgroup(fz.group, subset):
        raise AlgebraError(f"level subset at {u} is not a subgroup")
    return subset


@dataclass(frozen=True)
class FuzzyFacts:
    """Witnessed elementary facts about a fuzzy subgroup."""

    unit_value: Fraction
    max_value: Fraction
    unit_dominates: bool
    inverse_symmetric: bool
    level_sizes: tuple[tuple[Fraction, int], ...]


def derived_facts(fz: FuzzySubgroup) -> FuzzyFacts:
    """Check that mu(e) dominates and mu is inverse-symmetric; report both."""
    unit_value = fz.mu[fz.group.identity]
    max_value = max(fz.mu)
    dominates = all(fz.mu[x] <= unit_value for x in range(fz.n))
    symmetric = all(fz.mu[fz.group.inverses[x]] == fz.mu[x] for x in range(fz.n))
    levels = tuple((u, len(level_subset(fz, u))) for u in fz.chain)
    return FuzzyFacts(unit_value, max_value, dominates, symmetric, levels)


def as_dual_premorphism(fz: FuzzySubgroup) -> DualPremorphism:
    """View mu as a certified dual premorphism onto the chain monoid of U.

    Inverse-compatibility is automatic (chain elements are self-inverse and
    mu is inverse-symmetric), the product inequality is the first axiom, and
    coverage follows from surjectivity; all three are certified anyway.
    """
    return validate_dual_premorphism(fz.group, fz.base, fz._rank)


# -- morphisms of fuzzy subgroups ---------------------------------------------

class FuzzyMorphism(NamedTuple):
    """A pair (f, lam): group homomorphism plus top-preserving monotone chain map.

    ``lam`` maps chain indices of the source value set to chain indices of
    the target's, and the square mu_target(f(x)) = lam(mu_source(x)) commutes.
    """

    source: FuzzySubgroup
    target: FuzzySubgroup
    f: tuple[int, ...]
    lam: tuple[int, ...]


def validate_fuzzy_morphism(
    source: FuzzySubgroup,
    target: FuzzySubgroup,
    f: Sequence[int],
    lam: Sequence[int],
) -> FuzzyMorphism:
    """Check all three morphism conditions and return the validated pair."""
    f = tuple(f)
    lam = tuple(lam)
    if not is_group_homomorphism(f, source.group, target.group):
        raise NotGroupHom("f is not a group homomorphism")
    k1, k2 = len(source.chain), len(target.chain)
    if len(lam) != k1 or any(not 0 <= v < k2 for v in lam):
        raise NotOrderPreserving("lam must assign a target chain value to each source value")
    for i in range(k1 - 1):
        if lam[i] > lam[i + 1]:
            raise NotOrderPreserving(
                f"lam reverses {source.chain[i]} < {source.chain[i + 1]}",
                witness=(i, i + 1),
            )
    if lam[k1 - 1] != k2 - 1:
        raise TopNotPreserved(
            f"lam sends top {source.top} to {target.chain[lam[k1 - 1]]}, not {target.top}"
        )
    # the ranks of f against lam of the ranks, as whole arrays; only on
    # failure is x scanned, to name the first that fails
    if list(map(target._rank.__getitem__, f)) != list(map(lam.__getitem__, source._rank)):
        for x in range(source.n):
            if target.mu_index(f[x]) != lam[source.mu_index(x)]:
                raise CommutationFailure(
                    f"mu(f({source.group.names[x]})) != lam(mu({source.group.names[x]}))",
                    witness=x,
                )
    return FuzzyMorphism(source, target, f, lam)


def identity_fuzzy_morphism(fz: FuzzySubgroup) -> FuzzyMorphism:
    return validate_fuzzy_morphism(
        fz, fz, tuple(range(fz.n)), tuple(range(len(fz.chain)))
    )


def compose_fuzzy_morphisms(second: FuzzyMorphism, first: FuzzyMorphism) -> FuzzyMorphism:
    """The composite pair, re-validated rather than assumed correct."""
    if first.target != second.source:
        raise NotComposable("target of the first morphism differs from source of the second")
    f = tuple(second.f[v] for v in first.f)
    lam = tuple(second.lam[v] for v in first.lam)
    return validate_fuzzy_morphism(first.source, second.target, f, lam)
