"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SchwartzCalcError",
    "InvalidGrid",
    "GridMismatch",
    "IndexOffGrid",
    "ArityMismatch",
    "IllConditioned",
    "NotABasis",
    "NotDivisible",
    "NotInvertible",
    "NonFiniteSymbol",
    "NonFiniteSamples",
    "TooLarge",
    "UnsupportedOrder",
    "ConfigError",
]


class SchwartzCalcError(Exception):
    """Base class for every error raised by this library."""


class InvalidGrid(SchwartzCalcError):
    """Grid construction parameters are unusable (odd/small counts, bad extents)."""


class GridMismatch(SchwartzCalcError):
    """Two values that must live on the same grid do not."""


class IndexOffGrid(SchwartzCalcError):
    """A requested index point does not coincide with a grid node."""


class ArityMismatch(SchwartzCalcError):
    """A symbol function expects a different number of coordinates."""


class IllConditioned(SchwartzCalcError):
    """A kernel coordinate system is numerically rank deficient."""

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


class NotABasis(SchwartzCalcError):
    """The family is not a basis variant and was not flagged/verified as one."""


class DivisionError(SchwartzCalcError):
    """Base for failures of coefficient division by a symbol."""

    def __init__(self, message: str, worst_index: int, worst_point: tuple[float, ...],
                 magnitude: float, zero_threshold: float | None = None):
        super().__init__(message)
        #: flat (row-major) position of the offending index node
        self.worst_index = worst_index
        #: coordinates of the offending index node
        self.worst_point = worst_point
        #: size of the coefficient (or symbol) that triggered the failure
        self.magnitude = magnitude
        #: the zero threshold the division applied, where it is known
        self.zero_threshold = zero_threshold


class NotDivisible(DivisionError):
    """The datum has coefficient mass on the symbol's zero set."""


class NotInvertible(DivisionError):
    """The symbol dips below the invertibility threshold on the index grid."""


class NonFiniteSymbol(SchwartzCalcError, ValueError):
    """A symbol evaluates to ``inf`` or ``nan`` on a grid node.

    Also a ``ValueError``, the type a non-finite sample used to surface as."""


class NonFiniteSamples(SchwartzCalcError, ValueError):
    """A distribution's samples hold ``inf`` or ``nan``, for instance after a
    finite product overflows.  Also a ``ValueError``, the type it used to be."""


class TooLarge(SchwartzCalcError):
    """Dense-matrix oracle requested on a grid beyond the desk-scale cap."""


class UnsupportedOrder(SchwartzCalcError):
    """Finite-difference order outside the supported set."""


class ConfigError(SchwartzCalcError):
    """A run configuration file is malformed or inconsistent."""
