"""Exception types shared across the package."""

from __future__ import annotations


class SymjumpError(Exception):
    """Base class for all package errors."""


class UndecidableComparison(SymjumpError):
    """A certified comparison could not be decided on the one read it makes.

    Raised instead of guessing: the stated enclosure of a ``decimal``
    angle, or a sum of them in a mean index, straddles the decision
    boundary.  Rational and quadratic quantities are exact and never
    refuse.  The message names the value and the decision that failed.
    """


class NoTupleFound(SymjumpError):
    """The jump-tuple scan exhausted its bound without a hit.

    This is a bounds diagnostic (raise the scan ceiling or loosen delta),
    never a claim that no tuple exists.
    """


class ConstraintViolation(SymjumpError):
    """Input data contradicts an algebraically forced identity."""


class ScenarioError(SymjumpError):
    """Malformed or semantically invalid scenario input."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
