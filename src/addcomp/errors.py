"""Exception types shared across the toolkit.

Plain integer-width violations raise the builtin OverflowError; everything
else derives from ToolkitError so callers can catch domain failures in one
clause without swallowing programming errors.
"""
from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptySetError(ToolkitError):
    """A constructor or fold produced the empty set, which is rejected."""


class OutOfDecidableRangeError(ToolkitError):
    """Membership was queried outside a pointwise set's decidable range."""


class TooFewElementsError(ToolkitError):
    """Gap statistics need at least two elements in the window."""


class UndecidablePairError(ToolkitError):
    """No exact route and no enumeration bounds for this operand pair."""


class RadiusTooSmallError(ToolkitError):
    """The enumeration radius captured no elements of the second operand."""


class TooLargeError(ToolkitError):
    """Subset enumeration was requested beyond the exponential cap."""


class FNotSubsetError(ToolkitError):
    """The removal set is not contained in the candidate complement."""


class MissingResidueClassError(ToolkitError):
    """The candidate misses a whole residue class; carries the residue."""

    def __init__(self, residue: int, modulus: int) -> None:
        super().__init__(f"no element congruent to {residue} mod {modulus}")
        self.residue = residue
        self.modulus = modulus


class NotContainingSubgroupError(ToolkitError):
    """No subgroup n*Z could be verified inside the given set."""


class ComplementNotInfiniteError(ToolkitError):
    """The set-theoretic complement of W is finite, so the finite-index
    descent does not apply (the cofinite construction does instead)."""


class NoCongruentPairError(ToolkitError):
    """No two distinct elements congruent mod the detected period."""


class PreconditionViolatedError(ToolkitError):
    """A construction's hypothesis does not hold for the given inputs."""


class HypothesisNotObservedError(ToolkitError):
    """The gap floor was not reached within the horizon; carries the
    empirical report so callers can surface it."""

    def __init__(self, message: str, report: dict | None = None) -> None:
        super().__init__(message)
        self.report = report or {}


class BadParamsError(ToolkitError):
    """Invalid parameters for a built-in construction."""


class DslSyntaxError(ToolkitError):
    """Set-expression syntax error; carries the 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DslSemanticError(ToolkitError):
    """Set expression parsed but is meaningless (e.g. mod=0)."""
