"""Exception taxonomy shared by every moa module."""

from __future__ import annotations


class MoaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MoaError):
    """Shape, rank, permutation, or element-count mismatch."""


class SizeError(ShapeError, OverflowError):
    """Element count past 2**63 - 1.  Also an OverflowError, the builtin
    error for a number too large for its representation."""


class BoundsError(MoaError):
    """Index component or flat offset outside the valid range."""


class DomainError(MoaError):
    """Value outside an operation's domain (bad gradeup entry, non-finite
    scalar, non-unit vector, non-orthonormal basis)."""


class EvaluationError(MoaError):
    """Failure while evaluating an expression: unbound leaf, binding whose
    shape disagrees with the leaf, or division by zero."""


class PartitionError(MoaError):
    """Requested processor count does not partition the loop nest.

    ``valid`` lists the nontrivial processor counts that would work.
    """

    def __init__(self, message: str, valid: tuple[int, ...] = ()):
        super().__init__(message)
        self.valid = valid


class LoweringError(MoaError):
    """Expression cannot be lowered to affine loop accesses."""


class PlanError(MoaError):
    """Loop-plan integrity violation (out-of-range offset, bad plan data)."""


class ParseError(MoaError):
    """Expression text could not be parsed. Carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
