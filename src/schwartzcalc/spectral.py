"""Linear operators diagonal in a family, and measure-style functional calculus.

An operator with eigenfamily ``v`` and eigenvalue system ``a`` acts by the
expansion ``A(u) = superpose(a * coordinates(u, v), v)``: analyse, multiply
by the symbol, synthesize.  On top of that this module builds the
operator-valued maps ``f -> A_f`` ("generalized measures"): the basis
measure ``f -> superpose(f * coordinates(., v), v)``, spectral products with
an arbitrary operator, scalings by a symbol, and the two eigenspectrum
variants whose argument is a function of the eigenvalue values themselves,
always consumed through composition with the eigenvalue system.

Operator equality is never decided symbolically; tests probe agreement on
family members plus random band-limited data (see the verification suites).
"""

from __future__ import annotations

import abc
import dataclasses
import numbers
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatch, GridMismatch, IndexOffGrid, NotABasis
from .grid import (
    Grid,
    GridDistribution,
    SymbolFunction,
    _formed,
    _frozen_table,
    _pointwise,
    sup_norm,
    unit_symbol,
)
from .families import CoordinateDistribution, SchwartzFamily, _transform_pair, coordinates, superpose

__all__ = [
    "SLinearOperator",
    "IdentityOperator",
    "DiagonalOperator",
    "MultiplicationOperator",
    "DenseOperator",
    "CoordinateOperator",
    "SuperposeOperator",
    "SpectrumFunction",
    "spectrum_identity",
    "spectrum_one",
    "GeneralizedMeasure",
    "BasisMeasure",
    "SpectralProductMeasure",
    "ScaledMeasure",
    "EigenspectrumMeasure",
    "OperatorSpectralMeasure",
    "EigenfamilyReport",
    "is_eigenfamily",
    "spectral_apply",
    "spectral_distribution",
    "spectral_product",
    "scale_measure",
    "integrate_measure",
    "eigenspectrum_measure",
    "operator_spectral_measure",
]


def spectral_apply(a: SymbolFunction, v: SchwartzFamily, u: GridDistribution) -> GridDistribution:
    """Apply the operator diagonal in ``v`` with eigenvalue system ``a``.

    Computes ``superpose(a * coordinates(u, v), v)``.  With ``a == 1`` this
    is the resolution of identity and returns ``u`` up to rounding.  Raises
    ``NonFiniteSymbol`` when ``a`` is not finite on the index grid.  Real
    data under a real, even Fourier symbol give a real image (half spectra).
    """
    v._check_space(u)
    rows = u.samples[np.newaxis]
    images = _transform_pair(v, a, u._real or not rows.imag.any()).apply(rows)
    return GridDistribution._trusted(v.space_grid, images[0])


class SLinearOperator(abc.ABC):
    """Linear map between grid distributions."""

    @abc.abstractmethod
    def apply(self, u: GridDistribution) -> GridDistribution: ...

    def __call__(self, u: GridDistribution) -> GridDistribution:
        return self.apply(u)

    def __matmul__(self, other: "SLinearOperator") -> "SLinearOperator":
        return ComposedOperator(self, other)

    def __add__(self, other: "SLinearOperator") -> "SLinearOperator":
        return SumOperator(self, other)

    def __mul__(self, scalar) -> "SLinearOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return ScaledOperator(complex(scalar), self)

    __rmul__ = __mul__


class IdentityOperator(SLinearOperator):
    def apply(self, u: GridDistribution) -> GridDistribution:
        return u


class ComposedOperator(SLinearOperator):
    def __init__(self, outer: SLinearOperator, inner: SLinearOperator):
        self.outer = outer
        self.inner = inner

    def apply(self, u):
        return self.outer.apply(self.inner.apply(u))


class SumOperator(SLinearOperator):
    def __init__(self, left: SLinearOperator, right: SLinearOperator):
        self.left = left
        self.right = right

    def apply(self, u):
        return self.left.apply(u) + self.right.apply(u)


class ScaledOperator(SLinearOperator):
    def __init__(self, scalar: complex, inner: SLinearOperator):
        self.scalar = scalar
        self.inner = inner

    def apply(self, u):
        return self.scalar * self.inner.apply(u)


class DiagonalOperator(SLinearOperator):
    """Operator with eigenfamily ``family`` and eigenvalue system ``symbol``."""

    def __init__(self, family: SchwartzFamily, symbol: SymbolFunction):
        family._check_symbol(symbol)
        self.family = family
        self.symbol = symbol

    def apply(self, u):
        return spectral_apply(self.symbol, self.family, u)

    def __repr__(self):
        return f"DiagonalOperator(symbol={self.symbol.descriptor!r})"


class MultiplicationOperator(SLinearOperator):
    """Pointwise multiplication ``u -> f*u`` by a function of the space coordinates."""

    def __init__(self, symbol: SymbolFunction):
        self.symbol = symbol

    def apply(self, u):
        return _formed(u.grid, np.multiply, self.symbol.sample_finite(u.grid), u.samples)

    def __repr__(self):
        return f"MultiplicationOperator({self.symbol.descriptor!r})"


class DenseOperator(SLinearOperator):
    """Explicit matrix over a grid's nodes; applied by matrix-vector product."""

    def __init__(self, grid: Grid, matrix):
        self.grid = grid
        self.matrix = _frozen_table(matrix, (grid.size, grid.size), "dense operator matrix")

    def apply(self, u):
        if u.grid != self.grid:
            raise GridMismatch("distribution does not live on the operator's grid")
        return _formed(self.grid, np.matmul, self.matrix, u.samples)


class CoordinateOperator(SLinearOperator):
    """The analysis map ``u -> coordinates(u, v)`` (space grid to index grid)."""

    def __init__(self, family: SchwartzFamily):
        self.family = family

    def apply(self, u):
        return coordinates(u, self.family)


class SuperposeOperator(SLinearOperator):
    """The synthesis map ``c -> superpose(c, v)`` (index grid to space grid)."""

    def __init__(self, family: SchwartzFamily):
        self.family = family

    def apply(self, c):
        return superpose(c, self.family)


@dataclasses.dataclass(frozen=True)
class SpectrumFunction:
    """Function of eigenvalue values ``s`` in the complex plane.

    These are only ever used through composition with an eigenvalue system
    ``a`` (the spectrum set is never materialized): :meth:`compose` returns
    the coordinate-space symbol ``p -> f(a(p))``.  The evaluator must accept
    complex numpy arrays.
    """

    evaluator: Callable
    descriptor: str = "spectrum function"

    def compose(self, a: SymbolFunction) -> SymbolFunction:
        f = self.evaluator
        g = a.evaluator
        return SymbolFunction(
            a.arity,
            lambda *x: f(np.asarray(g(*x), dtype=np.complex128)),
            f"{self.descriptor} o {a.descriptor}",
        )

    def __mul__(self, other):
        return _pointwise(self, other, np.multiply, "*")

    __rmul__ = __mul__

    def __add__(self, other):
        return _pointwise(self, other, np.add, "+", ())


def spectrum_identity() -> SpectrumFunction:
    """The embedding ``s -> s`` of the eigenvalue values into the plane."""
    return SpectrumFunction(lambda s: s, "id")


def spectrum_one() -> SpectrumFunction:
    """The constant function 1 on the eigenvalue values."""
    return SpectrumFunction(lambda s: np.ones_like(s), "one")


def _require_basis(v: SchwartzFamily):
    if not v.is_basis:
        raise NotABasis(
            "this construction needs a basis family; use Dirac/Fourier or a "
            "kernel family flagged via as_basis()"
        )


class GeneralizedMeasure(abc.ABC):
    """Linear map from functions to distributions or operators.

    ``evaluate(f)`` is the integral of ``f`` against the measure;
    :meth:`integrate` is the value at the appropriate unit constant, by
    default the constant symbol 1 on the index grid of ``self.family``.
    """

    @abc.abstractmethod
    def evaluate(self, f): ...

    def _unit(self):
        return unit_symbol(self.family.index_dim)

    def integrate(self):
        return self.evaluate(self._unit())


class BasisMeasure(GeneralizedMeasure):
    """``f -> operator superpose(f * coordinates(., v), v)`` for a basis ``v``.

    An injective algebra homomorphism from symbols into operators: products
    of symbols go to compositions, and the unit constant goes to the
    identity.
    """

    def __init__(self, family: SchwartzFamily):
        _require_basis(family)
        self.family = family

    def evaluate(self, f: SymbolFunction) -> SLinearOperator:
        return DiagonalOperator(self.family, f)


class SpectralProductMeasure(GeneralizedMeasure):
    """``f -> operator u -> superpose(f * B(u), v)``.

    Each value is the composition ``SuperposeOperator(v) @
    MultiplicationOperator(f) @ B``.  ``B`` must map distributions on ``v``'s
    space grid to distributions on ``v``'s index grid; ``superpose`` checks
    that when the operator is applied.  With ``B`` the coordinate operator
    of ``v`` this reduces to the basis measure.
    """

    def __init__(self, operator: SLinearOperator, family: SchwartzFamily):
        self.operator = operator
        self.family = family

    def evaluate(self, f: SymbolFunction) -> SLinearOperator:
        self.family._check_symbol(f)
        return SuperposeOperator(self.family) @ MultiplicationOperator(f) @ self.operator


class ScaledMeasure(GeneralizedMeasure):
    """Product ``g . mu`` of a function by a measure: evaluates ``f`` as ``mu(g*f)``."""

    def __init__(self, scaler, inner: GeneralizedMeasure):
        unit = inner._unit()
        arity = getattr(unit, "arity", None)  # None: the unit is a spectrum function
        if not isinstance(scaler, type(unit)) or getattr(scaler, "arity", None) != arity:
            kind = "spectrum functions" if arity is None else f"symbols of arity {arity}"
            raise ArityMismatch(f"this measure consumes {kind}")
        self.scaler = scaler
        self.inner = inner

    def evaluate(self, f):
        return self.inner.evaluate(self.scaler * f)

    def _unit(self):
        return self.inner._unit()


class _SpectrumMeasure(GeneralizedMeasure):
    """A measure on the eigenvalue values of ``self.symbol``: ``evaluate(f)``
    is ``self._at(f o a)`` for a spectrum function ``f``, and its unit is
    :func:`spectrum_one`."""

    def evaluate(self, f: SpectrumFunction):
        if not isinstance(f, SpectrumFunction):
            raise ArityMismatch("eigenspectrum measures consume spectrum functions")
        return self._at(f.compose(self.symbol))

    def _unit(self):
        return spectrum_one()


class EigenspectrumMeasure(_SpectrumMeasure):
    """Distribution-valued measure on the eigenvalue values of ``a``.

    ``evaluate(f) = (f o a) * coordinates(u, v)`` on the index grid, the
    ``MultiplicationOperator`` of ``f o a`` applied to the coordinates.  At the
    identity embedding this is ``a * coordinates(u, v)``, the integrand of
    the expansion of the diagonal operator applied to ``u``; at the unit
    constant it is ``coordinates(u, v)`` itself.
    """

    def __init__(self, u: GridDistribution, family: SchwartzFamily, symbol: SymbolFunction):
        family._check_space(u)
        family._check_symbol(symbol)
        self.u = u
        self.family = family
        self.symbol = symbol
        self._coords = coordinates(u, family)

    def _at(self, f_of_a: SymbolFunction) -> CoordinateDistribution:
        return MultiplicationOperator(f_of_a).apply(self._coords)


class OperatorSpectralMeasure(_SpectrumMeasure):
    """Operator-valued measure on the eigenvalue values of ``a``.

    ``evaluate(f)`` is the operator diagonal in ``v`` with symbol ``f o a``.
    At the identity embedding it recovers the operator with eigenvalue
    system ``a``; at the unit constant, the identity operator.
    """

    def __init__(self, symbol: SymbolFunction, family: SchwartzFamily):
        _require_basis(family)
        family._check_symbol(symbol)
        self.symbol = symbol
        self.family = family

    def _at(self, f_of_a: SymbolFunction) -> SLinearOperator:
        return DiagonalOperator(self.family, f_of_a)


@dataclasses.dataclass(frozen=True)
class EigenfamilyReport:
    """Outcome of an eigenfamily residual sweep."""

    max_residual: float
    worst_index: tuple[float, ...]
    tolerance: float
    passed: bool


def is_eigenfamily(
    A: SLinearOperator,
    v: SchwartzFamily,
    a: SymbolFunction,
    tol: float,
    indices: Sequence | None = None,
) -> EigenfamilyReport:
    """Check ``A(v_p) ~= a(p) v_p`` over index nodes.

    The residual at ``p`` is ``sup|A(v_p) - a(p) v_p| / max(1, sup|v_p|)``.
    ``indices`` restricts the sweep to the given index points (useful to
    probe only the resolved band of an approximate operator); the default is
    every node of the index grid.  An empty ``indices`` has no worst index
    and raises ``IndexOffGrid``.
    """
    v._check_symbol(a)
    if indices is None:
        pts = [v.index_grid.point_at(k) for k in range(v.index_grid.size)]
    else:
        pts = [tuple(np.atleast_1d(np.asarray(p, dtype=float))) for p in indices]
        if not pts:
            raise IndexOffGrid("is_eigenfamily needs at least one index point; indices is empty")
    worst = -1.0
    worst_point = pts[0]
    for p in pts:
        vp = v.member(p)
        lhs = A.apply(vp)
        resid = sup_norm(lhs - a.at(p) * vp) / max(1.0, sup_norm(vp))
        if resid > worst:
            worst = resid
            worst_point = p
    return EigenfamilyReport(
        max_residual=float(worst),
        worst_index=tuple(float(x) for x in worst_point),
        tolerance=float(tol),
        passed=bool(worst <= tol),
    )


# the measure constructors under their functional names
spectral_distribution = BasisMeasure
spectral_product = SpectralProductMeasure
scale_measure = ScaledMeasure
integrate_measure = GeneralizedMeasure.integrate
eigenspectrum_measure = EigenspectrumMeasure
operator_spectral_measure = OperatorSpectralMeasure
