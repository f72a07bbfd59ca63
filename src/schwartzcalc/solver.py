"""Solving ``A(u) = d`` by division in eigen-coordinates.

When ``A`` is diagonal in a basis ``v`` with eigenvalue system ``a``, the
equation reduces on the index grid to ``a * [u|v] = [d|v]``.  A solution
exists exactly when the coefficient distribution of the datum is divisible
by ``a``; the solver performs thresholded pointwise division and
resynthesizes the quotient.  Constant-coefficient differential operators are
handled through the Fourier family of the datum's grid, whose members are
eigenvectors with the polynomial symbol built here.

Division convention: on nodes where ``|a|`` is at or below the zero
threshold, the quotient is set to 0 (the minimal-norm representative among
the many valid quotients); if the datum carries coefficient mass above the
residual tolerance on such a node, ``NotDivisible`` is raised.  On a
periodic box the returned solution is the periodic one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping

import numpy as np

from .errors import ArityMismatch, NotDivisible
from .grid import Grid, GridDistribution, SymbolFunction, _l2, _polynomial_symbol, l2_norm
from .families import (
    CoordinateDistribution,
    FourierFamily,
    SchwartzFamily,
    _fourier_analysis_real,
    _fourier_synthesis_real,
    _from_half,
    _to_half,
)
from .spectral import SLinearOperator, _apply_rows, spectral_apply

__all__ = [
    "DifferentialOperatorSpec",
    "DifferentialOperator",
    "DivisionPolicy",
    "SolveResult",
    "differential_symbol",
    "divide",
    "solve",
    "solve_pde",
]


def _normalize_multi_index(key) -> tuple[int, ...]:
    if isinstance(key, int):
        key = (key,)
    idx = tuple(int(j) for j in key)
    if any(j < 0 for j in idx):
        raise ArityMismatch(f"derivative multi-index must be non-negative, got {idx}")
    return idx


@dataclasses.dataclass(frozen=True)
class DifferentialOperatorSpec:
    """Constant-coefficient differential operator ``sum_j c_j d^j``.

    ``coeffs`` maps multi-indices (tuples of per-axis derivative orders; a
    bare int means 1-d) to complex coefficients.  All multi-indices must
    share one length, the spatial arity.
    """

    coeffs: Mapping

    def __post_init__(self):
        normalized = {}
        arity = None
        for key, value in dict(self.coeffs).items():
            idx = _normalize_multi_index(key)
            if arity is None:
                arity = len(idx)
            elif len(idx) != arity:
                raise ArityMismatch(
                    f"multi-indices of mixed lengths: {idx} vs arity {arity}"
                )
            normalized[idx] = complex(value)
        object.__setattr__(self, "coeffs", normalized)
        object.__setattr__(self, "_arity", arity)

    @property
    def arity(self) -> int | None:
        """Spatial dimension, or None for the empty (zero) operator."""
        return self._arity

    def order(self) -> int:
        return max((sum(idx) for idx in self.coeffs), default=0)


def differential_symbol(spec: DifferentialOperatorSpec, index_grid: Grid) -> SymbolFunction:
    """Polynomial symbol of the operator on the frequency lattice.

    Acting on the plane wave ``exp(-i p.x)``, the derivative ``d^j`` pulls
    down ``(-i)^|j| p^j``, so the operator's eigenvalue system on the
    Fourier family is ``P(p) = sum_j c_j (-i)^|j| p^j``.  The returned
    symbol is evaluable anywhere; ``index_grid`` fixes (and checks) the
    arity.
    """
    if spec.arity is not None and spec.arity != index_grid.dim:
        raise ArityMismatch(
            f"operator spec has arity {spec.arity}, index grid has dimension "
            f"{index_grid.dim}"
        )
    terms = [(idx, c * (-1j) ** sum(idx)) for idx, c in spec.coeffs.items()]
    label = " + ".join(
        f"{c}*d^{idx}" if len(idx) > 1 else f"{c}*d^{idx[0]}"
        for idx, c in spec.coeffs.items()
    )
    return _polynomial_symbol(index_grid.dim, terms, f"symbol[{label or '0'}]")


def _fourier_pair(spec: DifferentialOperatorSpec, grid: Grid):
    """The eigen-pair of ``spec`` on ``grid``: its Fourier family and polynomial symbol."""
    family = FourierFamily(grid)
    return family, differential_symbol(spec, family.index_grid)


class DifferentialOperator(SLinearOperator):
    """Constant-coefficient operator applied spectrally on a periodic box."""

    def __init__(self, spec: DifferentialOperatorSpec):
        self.spec = spec

    def apply(self, u: GridDistribution) -> GridDistribution:
        family, symbol = _fourier_pair(self.spec, u.grid)
        return spectral_apply(symbol, family, u)


@dataclasses.dataclass(frozen=True)
class DivisionPolicy:
    """Thresholds for pointwise division by a symbol.

    ``zero_threshold`` is the absolute magnitude below which the symbol
    counts as zero; ``None`` resolves to ``1e-12 * max|a|`` over the grid at
    division time.  ``residual_threshold`` is the fraction of the datum's
    sup norm tolerated as coefficient mass on the zero set.
    """

    zero_threshold: float | None = None
    residual_threshold: float = 1e-10

    def __post_init__(self):
        zt = self.zero_threshold
        if zt is not None and (math.isnan(zt) or zt <= 0.0):
            raise ValueError(f"zero_threshold must be positive (or None), got {zt}")
        if not math.isfinite(self.residual_threshold) or self.residual_threshold < 0.0:
            raise ValueError(
                f"residual_threshold must be non-negative and finite, got {self.residual_threshold}"
            )

    def resolve_zero_threshold(self, symbol_values: np.ndarray) -> float:
        if self.zero_threshold is not None:
            return float(self.zero_threshold)
        return 1e-12 * float(np.max(np.abs(symbol_values)))


def divide(
    d_v: CoordinateDistribution,
    a: SymbolFunction,
    policy: DivisionPolicy | None = None,
) -> CoordinateDistribution:
    """Pointwise quotient ``q`` with ``a * q = d_v`` off the zero set of ``a``.

    On nodes with ``|a|`` at or below the zero threshold, ``q`` is set to 0;
    if ``d_v`` exceeds the residual tolerance there, the datum has
    coefficient mass where the symbol vanishes and ``NotDivisible`` is
    raised, carrying the worst offending node.  ``NonFiniteSymbol`` is
    raised when ``a`` is not finite on the grid.
    """
    q = _quotient(d_v.samples, a.sample_finite(d_v.grid), policy or DivisionPolicy(), d_v.grid)
    return GridDistribution._trusted(d_v.grid, q)


def _quotient(
    d_v: np.ndarray, a_values: np.ndarray, policy: DivisionPolicy, grid: Grid
) -> np.ndarray:
    """Core of :func:`divide` on arrays: ``a_values`` are the symbol's samples
    on ``grid``, the index grid of the coefficients ``d_v``."""
    magnitudes = np.abs(a_values)
    eps = policy.resolve_zero_threshold(magnitudes)  # |a| gives the threshold a does
    zero_mask = magnitudes <= eps
    if not zero_mask.any():
        return d_v / a_values
    mass = np.abs(d_v)
    allowed = policy.residual_threshold * (float(np.max(mass)) if mass.size else 0.0)
    bad = zero_mask & (mass > allowed)
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, mass, -1.0)))
        raise NotDivisible(
            f"datum has coefficient mass {mass.flat[worst]:.6e} at index node "
            f"{grid.point_at(worst)} where the symbol magnitude is below "
            f"{eps:.6e}",
            worst_index=worst,
            worst_point=grid.point_at(worst),
            magnitude=float(mass.flat[worst]),
        )
    return np.where(zero_mask, 0.0 + 0.0j, d_v / np.where(zero_mask, 1.0, a_values))


@dataclasses.dataclass(frozen=True)
class SolveResult:
    """Solution of ``A(u) = d`` together with its quotient and residual."""

    solution: GridDistribution
    quotient: CoordinateDistribution
    #: relative L2 residual of the resynthesized solution against the datum
    residual: float


def solve(
    v: SchwartzFamily,
    a: SymbolFunction,
    d: GridDistribution,
    policy: DivisionPolicy | None = None,
) -> SolveResult:
    """Solve ``A(u) = d`` for the operator diagonal in ``v`` with symbol ``a``.

    ``u = superpose(divide(coordinates(d, v), a), v)``.  Raises
    ``NotDivisible`` when no quotient exists under the policy and
    ``NonFiniteSymbol`` when ``a`` is not finite on the index grid.  The
    reported residual is ``|A(u) - d| / |d|`` in the quadrature L2 norm.

    The symbol is sampled once, for the division and for ``A(u)``; the
    four transforms (analyse ``d``, synthesise ``u``, then analyse and
    synthesise again for ``A(u)``) run on arrays, and the results are the
    same bits as the composition above.  The exception is a real datum on
    the Fourier family with a polynomial symbol known to be real and even:
    the quotient is then Hermitian, and the four transforms run on half
    spectra (``rfftn``/``irfftn``).  That solution is real (imaginary part
    ``+0.0``) and agrees with the composition to rounding, not bit for bit.
    """
    v._check_space(d)
    return _solve(v, a.sample_finite(v.index_grid), d, policy or DivisionPolicy(), a._real_even)


def _solve(
    v: SchwartzFamily,
    a_values: np.ndarray,
    d: GridDistribution,
    policy: DivisionPolicy,
    real_even: bool,
) -> SolveResult:
    """Core of :func:`solve` for a datum on ``v``'s space grid: ``a_values``
    are the symbol's finite samples on the index grid, ``real_even`` whether
    the symbol is known to be real and even."""
    if real_even and isinstance(v, FourierFamily) and not d.samples.imag.any():
        try:
            return _solve_real(v, a_values, d, policy)
        except NotDivisible:
            pass  # the complex path names the offending node on the whole grid
    d_v = v.coordinates_rows(d.samples[np.newaxis])[0]
    q = _quotient(d_v, a_values, policy, v.index_grid)
    del d_v  # not needed for the residual; keeps the peak down
    u = v.superpose_rows(q[np.newaxis])[0]
    denom = l2_norm(d)
    image = _apply_rows(v, a_values, u[np.newaxis])[0]
    np.subtract(image, d.samples, out=image)
    resid = _l2(image, d.grid) / denom if denom > 0.0 else 0.0
    return SolveResult(
        solution=GridDistribution._trusted(v.space_grid, u),
        quotient=GridDistribution._trusted(v.index_grid, q),
        residual=float(resid),
    )


def _solve_real(
    v: FourierFamily, a_values: np.ndarray, d: GridDistribution, policy: DivisionPolicy
) -> SolveResult:
    """:func:`_solve` for a real datum and a real, even symbol: every step
    on the half spectrum, reading the symbol's samples at its nodes only."""
    space, index = v.space_grid, v.index_grid
    counts = space.counts
    a_half = _to_half(a_values.real, counts)
    d_v = _fourier_analysis_real(space, d.samples.real)
    q = _quotient(d_v, a_half, policy, index)
    del d_v
    u = _fourier_synthesis_real(space, index, q)
    coords = _fourier_analysis_real(space, u)
    np.multiply(a_half, coords, out=coords)
    image = _fourier_synthesis_real(space, index, coords)
    del coords, a_half
    np.subtract(image, d.samples.real, out=image)
    denom = l2_norm(d)
    resid = _l2(image, d.grid) / denom if denom > 0.0 else 0.0
    del image
    quotient = GridDistribution._trusted(index, _from_half(q, counts))
    del q  # the full-size results are made one after the other
    return SolveResult(
        solution=GridDistribution._trusted(space, u.astype(np.complex128)),
        quotient=quotient,
        residual=float(resid),
    )


def solve_pde(
    spec: DifferentialOperatorSpec,
    d: GridDistribution,
    policy: DivisionPolicy | None = None,
) -> SolveResult:
    """Solve ``D u = d`` for a constant-coefficient operator on ``d``'s grid.

    Uses the Fourier family of the grid (on which ``D`` is diagonal with the
    polynomial symbol) and symbol division.  The result is the periodic
    solution on the box.
    """
    return solve(*_fourier_pair(spec, d.grid), d, policy)
