"""Exception types shared across the package."""

from __future__ import annotations

QUOTE_CAP = 60


def quote(value) -> str:
    """repr of an input value for an error message, cut to a fixed length."""
    text = repr(value)
    return text if len(text) <= QUOTE_CAP else text[:QUOTE_CAP - 3] + "..."


class PatchError(ValueError):
    """Malformed coordinate patch (duplicate names, missing roles, ...)."""


class PatchMismatchError(PatchError):
    """Two objects that must live on the same patch do not."""


class ExpressionError(ValueError):
    """Base class for scalar-expression problems.

    ``position`` is the character offset into the source text when the
    error was raised by the parser, otherwise ``None``.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ExpressionSyntaxError(ExpressionError):
    """Input text does not match the expression grammar."""


class UnknownCoordinateError(ExpressionError):
    """An identifier does not name a coordinate of the patch."""


class AngleDisciplineError(ExpressionError):
    """Angle coordinate used polynomially, or non-angle inside sin/cos."""


class DegreeError(ValueError):
    """Tensor degrees incompatible with the requested operation."""


class MalformedDataError(ValueError):
    """Geometric data violating its invariants (non-vertical bivector, ...)."""


class DegenerateInputError(ValueError):
    """Input is outside the domain of the operation (singular matrix, ...)."""


class NonCasimirError(DegenerateInputError):
    """A coefficient that must be a Casimir function is not.

    ``witness`` holds the nonzero Hamiltonian vector field.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ManifestError(ValueError):
    """A manifest document failed to parse or validate."""
