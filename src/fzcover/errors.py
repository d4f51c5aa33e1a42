"""Exception hierarchy shared by all structure validators and enumerators.

Validation errors carry a human-readable message plus, where useful, a
``witness`` attribute holding the offending elements (as indices or labels)
so failure reports can embed a minimal counterexample.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AlgebraError):
    """A structure, map or file failed one of its defining conditions."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(AlgebraError):
    """An enumeration would examine more candidates than the budget allows."""

    def __init__(self, needed: int, budget: int, what: str = "candidates"):
        super().__init__(f"{needed} {what} exceed budget {budget}")
        self.needed = needed
        self.budget = budget
        self.what = what


# -- group tables -----------------------------------------------------------

class NotClosed(ValidationError):
    """A table entry falls outside the element range."""


class NotAssociative(ValidationError):
    """Associativity fails; witness is the offending triple."""


class NoIdentity(ValidationError):
    """No two-sided identity element exists."""


class MissingInverse(ValidationError):
    """A group element has no two-sided inverse; witness is the element."""


# -- inverse monoids --------------------------------------------------------

class NotUnital(ValidationError):
    """The designated unit is not a two-sided identity."""


class NoInverse(ValidationError):
    """An element has no generalized inverse."""


class NonUniqueInverse(ValidationError):
    """An element has two distinct generalized inverses; witness (x, y1, y2)."""


class EmptyChain(ValidationError):
    """A chain monoid needs at least one value."""


class OutOfRange(ValidationError):
    """A chain value lies outside [0, 1]."""


class Unsorted(ValidationError):
    """Chain values must be strictly increasing."""


# -- fuzzy subgroups --------------------------------------------------------

class Axiom1Violation(ValidationError):
    """mu(x*y) < min(mu(x), mu(y)); witness is the pair (x, y)."""


class Axiom2Violation(ValidationError):
    """mu(x^-1) != mu(x); witness is x."""


class ValueOutOfRange(ValidationError):
    """A membership value lies outside [0, 1]; witness is the element."""


class ValueNotInChain(ValidationError):
    """The requested value is not among the values taken by mu."""


# -- dual premorphisms and covers -------------------------------------------

class NotDualPremorphism(ValidationError):
    """The map breaks inverse-compatibility or the product inequality."""


class CoverageFailure(ValidationError):
    """Some monoid element is not below any image; witness is that element."""


class NotFInverse(ValidationError):
    """Some class of the least group congruence has no greatest element."""


class NotIdempotentSeparating(ValidationError):
    """The homomorphism merges two idempotents; witness is the pair."""


class NotSurjective(ValidationError):
    """The map misses part of its target; witness is an unhit element."""


class NotHomomorphism(ValidationError):
    """The map does not respect products or the unit; witness is a pair."""


# -- category-level maps ----------------------------------------------------

class NotGroupHom(ValidationError):
    """The group component of a morphism is not a homomorphism."""


class NotOrderPreserving(ValidationError):
    """The value component of a morphism reverses a chain comparison."""


class TopNotPreserved(ValidationError):
    """The value component does not send top to top."""


class MaximaNotPreserved(ValidationError):
    """A class maximum is not sent to the maximum of its image class."""


class CommutationFailure(ValidationError):
    """The defining square of the morphism does not commute; witness element."""


class NotComposable(ValidationError):
    """Target of the first morphism differs from source of the second."""


class NotEmbeddingImage(ValidationError):
    """A morphism endpoint is not the cover image of the given fuzzy subgroup."""


class ReconstructionMismatch(AlgebraError):
    """Round-trip reconstruction disagreed with its input; witness embedded."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# -- workspace files ---------------------------------------------------------

class WorkspaceSyntaxError(AlgebraError):
    """Malformed workspace text; carries 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnknownReference(AlgebraError):
    """A block refers to a name that is not defined in the workspace."""

    def __init__(self, name: str, message: str | None = None):
        super().__init__(message or f"unknown reference {name!r}")
        self.name = name


DEFAULT_BUDGET = 1_000_000
"""Default cap on the candidates examined: images tried by a hom or iso search
and ranks tried by the fuzzy-subgroup filter (the nodes each search visits),
or subsets, chains and chain assignments by the chain enumeration."""
