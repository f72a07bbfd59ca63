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
import threading
from typing import Mapping

import numpy as np

from .errors import ArityMismatch, NonFiniteSamples, NotDivisible
from .grid import Grid, GridDistribution, SymbolFunction, _l2, _polynomial_symbol
from .families import CoordinateDistribution, FourierFamily, SchwartzFamily, _transform_pair
from .spectral import SLinearOperator, spectral_apply

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
        if zt is not None and not 0.0 < zt < math.inf:
            raise ValueError(f"zero_threshold must be positive and finite (or None), got {zt}")
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
    raised, carrying the worst offending node.  ``NonFiniteSymbol`` names
    the first node where ``a`` is not finite, ``NonFiniteSamples`` that of ``q``.
    """
    policy = policy or DivisionPolicy()
    q = _divide(d_v.samples, a.sample_finite(d_v.grid), policy, d_v.grid)[0]
    return GridDistribution._trusted(d_v.grid, q, finite=True)


def _divide(
    d_v: np.ndarray, a_values: np.ndarray, policy: DivisionPolicy, index: Grid
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The division rule of :func:`divide` and :func:`solve` on the
    coefficients ``d_v`` and symbol samples ``a_values`` on ``index``: the
    masked quotient, the zero set (``None`` when empty) and its threshold.
    ``NotDivisible`` names the worst node of the zero set, then
    ``NonFiniteSamples`` the first where ``d_v``, or else the quotient, is
    not finite."""
    eps, zero_mask = _zero_set(a_values, policy)
    if zero_mask is not None:
        mass, bad = _mass_on_zero_set(d_v, zero_mask, policy)
        if bad.any():
            worst = int(np.argmax(np.where(bad, mass, -1.0)))
            raise NotDivisible(
                f"datum has coefficient mass {mass.flat[worst]:.6e} at index node "
                f"{index.point_at(worst)} where the symbol magnitude is at or below "
                f"{eps:.6e}",
                worst_index=worst,
                worst_point=index.point_at(worst),
                magnitude=float(mass.flat[worst]),
                zero_threshold=eps,
            )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, with its node
        q = _masked_quotient(d_v, a_values, zero_mask)
    if not np.isfinite(q.view(np.float64)).all():  # the parts as floats scan faster
        what, bad = ("the datum's coefficient", d_v) if not np.isfinite(d_v).all() else ("the quotient", q)
        flat = int(np.argmin(np.isfinite(bad)))
        raise NonFiniteSamples(
            f"{what} at index node {index.point_at(flat)} is {bad.flat[flat]}; samples must all be finite"
        )
    return q, zero_mask, eps


def _zero_set(a_values: np.ndarray, policy: DivisionPolicy) -> tuple[float, np.ndarray | None]:
    """The policy's zero threshold and the mask of nodes where ``|a|`` is at
    or below it, ``None`` when ``min|a|`` is above it: the first part of the
    division rule :func:`divide`, :func:`solve` and the Green families share.
    A real (``float64``) symbol whose least value is above the threshold, or
    whose largest is below minus it, gives both with no ``|a|`` array: its
    ``max|a|`` is that of its least and largest values."""
    if a_values.dtype == np.float64:
        lo, hi = np.min(a_values), np.max(a_values)
        eps = policy.resolve_zero_threshold(np.array([lo, hi]))
        if lo > eps or hi < -eps:
            return eps, None
    magnitudes = np.abs(a_values)
    eps = policy.resolve_zero_threshold(magnitudes)  # |a| gives the threshold a does
    return eps, (magnitudes <= eps if np.min(magnitudes) <= eps else None)


def _mass_on_zero_set(x, zero_mask, policy: DivisionPolicy, axis: int | None = None):
    """``|x|`` and the mask of zero-set nodes where it exceeds the policy's
    tolerance: ``residual_threshold`` times the largest ``|x|`` over ``axis``
    (the whole array by default; ``axis=1`` judges each row on its own)."""
    mass = np.abs(x)
    allowed = policy.residual_threshold * np.max(mass, axis=axis, keepdims=True, initial=0.0)
    return mass, zero_mask & (mass > allowed)


def _masked_quotient(x: np.ndarray, a_values: np.ndarray, zero_mask: np.ndarray | None) -> np.ndarray:
    """``x / a`` off the zero set and 0 on it, in a new array; plain ``x / a``
    when the set is empty (``None``).  ``a_values`` and ``zero_mask``
    broadcast against ``x``."""
    if zero_mask is None:
        return x / a_values
    return np.where(zero_mask, 0.0 + 0.0j, x / np.where(zero_mask, 1.0, a_values))


class SolveResult:
    """Solution of ``A(u) = d`` with its quotient and ``residual``, the
    relative L2 residual ``|A(u) - d| / |d|``.  The quotient and the
    residual :func:`solve` finds are each built when first read, from what
    the result holds until then (the datum's coefficients, the symbol
    samples, the zero set); every later read returns the same value."""

    __slots__ = ("solution", "_quotient", "_residual", "_lock")

    def __init__(self, solution: GridDistribution, quotient: CoordinateDistribution, residual: float):
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "_quotient", quotient)
        object.__setattr__(self, "_residual", residual)
        object.__setattr__(self, "_lock", threading.Lock())

    def _built(self, name: str):
        with self._lock:  # one build, whichever thread reads first; it drops what built it
            if callable(getattr(self, name)):
                object.__setattr__(self, name, getattr(self, name)())
        return getattr(self, name)

    quotient = property(lambda self: self._built("_quotient"))
    residual = property(lambda self: self._built("_residual"))

    def __setattr__(self, name, value):
        raise AttributeError("SolveResult is immutable")


def solve(
    v: SchwartzFamily,
    a: SymbolFunction,
    d: GridDistribution,
    policy: DivisionPolicy | None = None,
) -> SolveResult:
    """Solve ``A(u) = d`` for the operator diagonal in ``v`` with symbol ``a``.

    ``u = superpose(divide(coordinates(d, v), a), v)``.  Raises
    ``NotDivisible`` when no quotient exists under the policy,
    ``NonFiniteSymbol`` when ``a`` is not finite on the index grid,
    ``NonFiniteSamples`` when the quotient or ``u`` is not finite and
    ``ArityMismatch`` when its arity is not the index dimension.  The
    reported residual is ``|A(u) - d| / |d|`` in the quadrature L2 norm.

    The symbol is sampled once, and two transforms run on arrays: analyse
    ``d``, synthesise ``u``; the first read of the residual analyses ``u``.
    The solution and quotient are the same bits as the composition above,
    and every read of a field the same bits.  The residual is measured on
    coefficients: on the Fourier family ``|f| = (2 pi)^(n/2) |c|`` (the
    discrete Parseval identity, each side in its own grid's norm), so
    ``|A(u) - d| = (2 pi)^(n/2) |a * coordinates(u) - coordinates(d)|`` and
    ``A(u)`` is never synthesised; on the Dirac family the constant is 1.
    It agrees with the spatial residual to the rounding of the synthesis it
    saves.  A family with no such constant synthesises ``A(u)`` instead.
    When that misfit is not finite (the analysis of ``u`` overflows), it is
    measured again with ``u`` and ``d`` scaled by the power of two just
    below ``1 / max`` of ``u``'s parts; a residual still not finite raises
    ``NonFiniteSamples``.

    A real datum under a real, even Fourier symbol runs on half spectra
    (``families._transform_pair``): the solution is then real (imaginary
    parts ``+0.0``), equal to the composition to rounding, not bit for bit.
    """
    v._check_space(d)
    return _solve(v, a, d, policy or DivisionPolicy())[0]


def _solve(
    v: SchwartzFamily, a: SymbolFunction, d: GridDistribution, policy: DivisionPolicy
) -> tuple[SolveResult, float]:
    """Core of :func:`solve` for a datum on ``v``'s space grid: the result and
    the zero threshold its division applied, on arrays, on the pair
    :func:`_transform_pair` picks.  A datum that does not divide, or whose
    quotient is not finite, on half spectra is divided again on the complex
    pair, which names the node.  Two transforms run here: the analysis of
    ``d`` and the synthesis of ``u`` (the half pair signs the quotient in
    place for it).  The quotient (divided again) and the residual (the
    analysis of ``u``) are built when first read."""
    x, pair = d.samples, _transform_pair(v, a, d._real or not d.samples.imag.any())
    while True:
        d_v = pair.analyse(x[np.newaxis])[0]
        try:
            buf, zero_mask, eps = _divide(d_v, pair.a_values, policy, v.index_grid)
            break
        except (NotDivisible, NonFiniteSamples):
            if not pair.half:
                raise
            pair = _transform_pair(v, a, False)
    u = pair.synthesise(buf[np.newaxis])[0]
    del buf  # before the datum's norm and the solution's complex copy
    denom = _l2(x.real if pair.half else x, v.space_grid)  # |x + 0i| is |x|
    solution = GridDistribution._trusted(v.space_grid, u)
    datum = x if v._parseval is None else None  # held only to form A(u) - d

    def quotient():  # the same division again, spread over the index grid
        q = _masked_quotient(d_v, pair.a_values, zero_mask)  # the bits _divide found finite
        return GridDistribution._trusted(v.index_grid, pair.to_full(q), finite=True)

    def misfit(u, target):  # |A(u) - d|: analyse u (the half pair takes its real part)
        coords = pair.scaled(u[np.newaxis])[0]
        if datum is not None:
            image = pair.synthesise(coords[np.newaxis])[0]
            np.subtract(image, target, out=image)
            return _l2(image, v.space_grid)
        np.subtract(coords, target, out=coords)
        return v._parseval * pair.l2(coords, v.index_grid)

    def residual():
        u, target = solution.samples, d_v if datum is None else datum
        with np.errstate(over="ignore", invalid="ignore"):  # a misfit that is not finite is measured again
            norm = misfit(u, target)
            if not math.isfinite(norm):  # the analysis of u overflowed: scale by 2**-e, which is exact
                e = int(np.frexp(np.max(np.abs(u.view(np.float64))))[1])
                down = lambda x: np.ldexp(x.view(np.float64), -e).view(x.dtype)
                norm = float(np.ldexp(misfit(down(u), down(target)), e))
        value = float(norm / denom) if denom > 0.0 else 0.0
        if not math.isfinite(value):
            raise NonFiniteSamples(f"the residual |A(u) - d| / |d| is {value}; samples must all be finite")
        return value

    return SolveResult(solution, quotient, residual), eps


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
