"""Exception types, and the integer rule for sizes, shared across the library."""

import numbers


def is_int(x) -> bool:
    """An integer, numpy's included, but not a bool: JSON true must not run as 1."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class DispersionLabError(Exception):
    """Base class for all library errors."""


class DimensionError(DispersionLabError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class KernelDomainError(DispersionLabError, ValueError):
    """A normalizer kernel received inputs outside its valid domain
    (e.g. a non-positive denominator after the stabilizer threshold)."""


class WindowPartitionError(DimensionError):
    """A block size does not divide the rows, or a head count the columns, in any
    split into windows, per-sample blocks, row groups, stacked grids or heads."""


class BoundViolationError(DispersionLabError, AssertionError):
    """An observed attention coefficient fell outside its theoretical bounds.

    Raised by dispersion sweeps: a violation falsifies the theory being
    tested, so it is an error, not a warning.
    """


class DifferentiationError(DispersionLabError, RuntimeError):
    """Backward pass encountered an op with no registered adjoint."""


class PreconditionError(DispersionLabError, ValueError):
    """A documented precondition of an operation was violated."""


class ConfigurationError(DispersionLabError, ValueError):
    """A model or CLI configuration is internally inconsistent."""


class TrainingError(DispersionLabError, RuntimeError):
    """Training diverged (non-finite loss)."""
