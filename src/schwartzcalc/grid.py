"""Uniform periodic grids and values sampled on them.

``R^d`` is modelled at desk scale by the box ``prod_i [-L_i, L_i)`` sampled
at ``N_i`` evenly spaced nodes per axis (``N_i`` even).  Nodes are
``x_k = -L + k * dx`` with ``dx = 2L/N``; multi-dimensional nodes are
enumerated row-major with axis 0 slowest.  The matched frequency lattice
(see :func:`dual_grid`) has spacing ``dp = pi/L`` so that
``dx * dp * N = 2*pi`` per axis, which is what makes the transform pair in
:mod:`schwartzcalc.families` an exact mutual inverse at grid level.

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArityMismatch, GridMismatch, IndexOffGrid, InvalidGrid, NonFiniteSamples, NonFiniteSymbol,
)

__all__ = [
    "Grid",
    "GridDistribution",
    "SymbolFunction",
    "make_grid",
    "dual_grid",
    "quadrature_weight",
    "sample_function",
    "zero_distribution",
    "pairing",
    "sup_norm",
    "l2_norm",
    "constant_symbol",
    "unit_symbol",
]

# Relative slack (in units of the axis spacing) when matching a requested
# index point to a grid node.
_NODE_TOLERANCE = 1e-8


@dataclasses.dataclass(frozen=True)
class Grid:
    """Truncated uniform lattice standing in for ``R^dim``.

    Parameters
    ----------
    dim : int
        Number of axes.
    counts : tuple of int
        Samples per axis; each must be even and >= 4.
    half_extents : tuple of float
        Box half-widths ``L_i > 0``; axis i covers ``[-L_i, L_i)``.
    """

    dim: int
    counts: tuple[int, ...]
    half_extents: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidGrid(f"dimension must be a positive integer, got {self.dim!r}")
        counts = tuple(int(n) for n in self.counts)
        extents = tuple(float(L) for L in self.half_extents)
        if len(counts) != self.dim or len(extents) != self.dim:
            raise InvalidGrid(
                f"need {self.dim} counts and half_extents, got "
                f"{len(counts)} and {len(extents)}"
            )
        for n in counts:
            if n < 4 or n % 2 != 0:
                raise InvalidGrid(f"axis counts must be even and >= 4, got {n}")
        for L in extents:
            if not math.isfinite(2.0 * L) or L <= 0.0:
                raise InvalidGrid(f"half extents must be positive with a finite width 2L, got {L}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "half_extents", extents)

    @property
    def spacings(self) -> tuple[float, ...]:
        """Per-axis node spacing ``dx_i = 2 L_i / N_i``."""
        return tuple(2.0 * L / n for L, n in zip(self.half_extents, self.counts))

    @property
    def size(self) -> int:
        """Total node count ``prod N_i``."""
        return math.prod(self.counts)

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one node, ``prod dx_i``."""
        return math.prod(self.spacings)

    def axis_points(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis, ``-L + k*dx`` for k = 0..N-1."""
        return self._axis_nodes(axis, np.arange(self.counts[axis], dtype=np.float64))

    def _axis_nodes(self, axis: int, k: np.ndarray) -> np.ndarray:
        """:meth:`axis_points` at the node numbers ``k`` only, made in ``k``
        (``float64``): ``-L + (2L/N) k``."""
        L = self.half_extents[axis]
        k *= 2.0 * L / self.counts[axis]
        k += -L
        return k

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``counts``, one per axis (ij indexing)."""
        axes = [self.axis_points(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def points(self) -> np.ndarray:
        """All nodes as a ``(size, dim)`` array in row-major order."""
        return np.stack([m.ravel() for m in self.meshes()], axis=-1)

    def index_of(self, point) -> int:
        """Flat (row-major) position of the node coinciding with ``point``.

        Raises
        ------
        IndexOffGrid
            If ``point`` is farther than a small tolerance from every node.
        """
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (self.dim,):
            raise IndexOffGrid(
                f"index point must have {self.dim} coordinates, got shape {p.shape}"
            )
        multi = []
        for i, x in enumerate(p.tolist()):
            L = self.half_extents[i]
            n = self.counts[i]
            dx = 2.0 * L / n
            t = (x + L) / dx
            # the nearest node, clamped to the axis; nan fails the test below
            k = min(max(round(t), 0), n - 1) if math.isfinite(t) else (0 if t < 0 else n - 1)
            if not abs(x - (-L + k * dx)) <= _NODE_TOLERANCE * dx:
                near = "not a number" if math.isnan(x) else f"nearest node {-L + k * dx:g}"
                raise IndexOffGrid(
                    f"point {tuple(p.tolist())} is not a node of the grid (axis {i}: {near})"
                )
            multi.append(k)
        return int(np.ravel_multi_index(multi, self.counts))

    def point_at(self, flat: int) -> tuple[float, ...]:
        """Coordinates of the node at flat (row-major) position ``flat``."""
        multi = np.unravel_index(flat, self.counts)
        return tuple(
            float(-L + 2.0 * L / n * k)
            for k, L, n in zip(multi, self.half_extents, self.counts)
        )


def make_grid(dim: int, counts: Sequence[int], half_extents: Sequence[float]) -> Grid:
    """Build a validated grid. See :class:`Grid` for the conventions."""
    return Grid(dim, tuple(counts), tuple(half_extents))


def dual_grid(g: Grid) -> Grid:
    """Frequency lattice matched to ``g``.

    Same counts; node ``j`` along an axis sits at ``j * (pi/L)`` for
    ``j in [-N/2, N/2)``, so the dual half-extent is ``N*pi/(2L)`` and the
    construction is an involution: ``dual_grid(dual_grid(g))`` has the
    spacings of ``g``.
    """
    extents = tuple(n * math.pi / (2.0 * L) for n, L in zip(g.counts, g.half_extents))
    for n, L, dual in zip(g.counts, g.half_extents, extents):
        if not 0.0 < dual < math.inf:
            raise InvalidGrid(f"half extent {L} on {n} nodes has no finite dual half extent")
    return Grid(g.dim, g.counts, extents)


def quadrature_weight(g: Grid) -> float:
    """Weight of one node in the box quadrature, ``prod dx_i``."""
    return g.cell_volume


class GridDistribution:
    """Complex samples on a grid; the desk-scale surrogate of a distribution.

    Samples are stored flat in the grid's row-major order and frozen after
    construction.  ``_real`` records that they came from a real array, so
    that every imaginary part is ``+0.0`` without a scan.
    """

    __slots__ = ("grid", "samples", "_real")

    def __init__(self, grid: Grid, samples):
        values = np.asarray(samples)  # a real input is scanned before its complex copy
        if values.dtype.kind == "f" and values.dtype.itemsize > 8:  # scanned as the doubles it is stored as
            with np.errstate(over="ignore"):
                values = values.astype(np.float64)
        self._freeze(grid, values if values.dtype.kind == "f" else np.array(values, np.complex128, order="C"))

    @classmethod
    def _trusted(cls, grid: Grid, samples: np.ndarray, finite: bool = False) -> "GridDistribution":
        """Wrap an array the library has just allocated, skipping only the copy.

        The caller hands ``samples`` over and keeps no other reference to it;
        the size check runs, and the finiteness scan (before a complex copy)
        unless the caller has already found every value ``finite``.
        """
        dist = cls.__new__(cls)
        dist._freeze(grid, samples, finite)
        return dist

    def _freeze(self, grid: Grid, values: np.ndarray, finite: bool = False):
        if values.size != grid.size:
            raise GridMismatch(
                f"expected {grid.size} samples for the grid, got {values.size}"
            )
        if not finite:
            _check_finite(values)
        arr = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "_real", values.dtype.kind in "biuf")

    def __setattr__(self, name, value):
        raise AttributeError("GridDistribution is immutable")

    def __repr__(self):
        return f"GridDistribution(grid={self.grid!r}, n={self.samples.size})"

    # small arithmetic surface; everything returns a fresh distribution
    def _binary(self, other, op):
        if isinstance(other, GridDistribution):
            if other.grid != self.grid:
                raise GridMismatch("operands live on different grids")
            other = other.samples
        return _formed(self.grid, op, self.samples, other)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return _formed(self.grid, np.multiply, other, self.samples)

    def __neg__(self):
        return GridDistribution._trusted(self.grid, -self.samples)


def _formed(grid: Grid, op: Callable, left, right) -> GridDistribution:
    """The fresh distribution ``op(left, right)`` on ``grid``: a value that
    overflows is the scan's ``NonFiniteSamples``, not a floating-point warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = op(left, right)
    return GridDistribution._trusted(grid, values)


def _check_finite(values: np.ndarray) -> None:
    """Raise ``NonFiniteSamples`` unless every part of every value is finite."""
    if values.dtype == np.complex128 and values.flags.c_contiguous:
        values = values.view(np.float64)  # the parts as floats scan faster
    if not np.all(np.isfinite(values)):
        raise NonFiniteSamples("distribution samples must all be finite")


def sample_function(grid: Grid, fn: Callable) -> GridDistribution:
    """Sample a vectorized function of the grid coordinates.

    ``fn`` receives one coordinate array per axis (shaped ``counts``) and
    must return an array broadcastable to that shape.  Overflow and invalid
    operations in ``fn`` are not warned of: a value they spoil is a
    ``NonFiniteSamples``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = _on_nodes(fn, grid)
    return GridDistribution(grid, values)


def _on_nodes(fn: Callable, grid: Grid) -> np.ndarray:
    """A vectorized ``fn`` of the coordinate arrays on every node of ``grid``
    (flat, row-major, complex, contiguous; may share memory with what ``fn``
    returned)."""
    values = np.broadcast_to(np.asarray(fn(*grid.meshes()), dtype=np.complex128), grid.counts)
    return np.ascontiguousarray(values.ravel())


def zero_distribution(grid: Grid) -> GridDistribution:
    return GridDistribution._trusted(grid, np.zeros(grid.size, dtype=np.complex128))


def pairing(u: GridDistribution, phi) -> complex:
    """Quadrature pairing ``<u, phi> = sum_k u(x_k) phi(x_k) * cell_volume``.

    ``phi`` may be a vectorized callable of the coordinates, another
    distribution on the same grid, or a raw sample array.  No conjugation is
    applied (distributional pairing, not an inner product).  A sum that is
    not finite, as when finite factors overflow or ``phi`` is not finite
    somewhere, is a ``NonFiniteSamples``.
    """
    if callable(phi):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a spoiled value spoils the sum
            phi_vals = _on_nodes(phi, u.grid)
    elif isinstance(phi, GridDistribution):
        if phi.grid != u.grid:
            raise GridMismatch("pairing operands live on different grids")
        phi_vals = phi.samples
    else:
        phi_vals = np.asarray(phi, dtype=np.complex128).reshape(-1)
        if phi_vals.size != u.grid.size:
            raise GridMismatch("pairing array has the wrong length for the grid")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(u.samples * phi_vals) * u.grid.cell_volume)
    if not np.isfinite(value):
        raise NonFiniteSamples(f"the pairing is not finite: {value}")
    return value


def sup_norm(u: GridDistribution) -> float:
    return float(np.max(np.abs(u.samples))) if u.samples.size else 0.0


def l2_norm(u: GridDistribution) -> float:
    """Quadrature-weighted L2 norm, ``sqrt(sum |u|^2 * cell_volume)``."""
    return _l2(u.samples, u.grid)


def _l2(samples: np.ndarray, grid: Grid) -> float:
    """:func:`l2_norm` of a flat sample array on ``grid``.

    When ``max|u|`` lies outside ``[1e-150, 1e150]`` the squares would
    overflow or underflow, so ``|u|`` is divided by it first and the norm
    multiplied back (the scaling of LAPACK's ``dnrm2``).  Inside that range
    the sum is the plain ``sum |u|^2``.  Real samples are squared with no
    ``|u|`` array when their largest square puts ``max|u|`` strictly inside
    it (rounded squaring is monotone), the same squares and the same sum.
    """
    if samples.dtype == np.float64:
        with np.errstate(over="ignore", under="ignore"):  # such squares fail the test below
            squares = np.square(samples)
        if 1e-150 * 1e-150 < np.max(squares) < 1e150 * 1e150:
            return float(np.sqrt(np.sum(squares) * grid.cell_volume))
        del squares
    mag = np.abs(samples)
    peak = float(np.max(mag))
    scale = peak if 0.0 < peak < math.inf and not 1e-150 <= peak <= 1e150 else 1.0
    if scale != 1.0:
        mag /= scale
    np.square(mag, out=mag)
    return float(np.sqrt(np.sum(mag) * grid.cell_volume)) * scale


@dataclasses.dataclass(frozen=True)
class SymbolFunction:
    """Deterministic scalar function of ``arity`` real coordinates.

    The evaluator must be vectorized: it receives one numpy coordinate array
    per axis and returns an array broadcastable against them (a plain scalar
    is also accepted).  Symbols carry the eigenvalue systems, multiplication
    weights and division denominators used throughout the package.
    """

    arity: int
    evaluator: Callable
    descriptor: str = "symbol"
    #: the ``(j, c)`` terms of a polynomial known to be real with
    #: ``a(-p) = a(p)``, with real ``c``; only :func:`_polynomial_symbol` sets
    #: them, from its terms, never from sampled values
    _real_terms: tuple | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.arity < 1:
            raise ArityMismatch(f"symbol arity must be >= 1, got {self.arity}")

    @property
    def _real_even(self) -> bool:
        """Whether the symbol is known to be real and even."""
        return self._real_terms is not None

    def at(self, point) -> complex:
        """Evaluate at a single point (scalar allowed when arity is 1)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (self.arity,):
            raise ArityMismatch(
                f"symbol {self.descriptor!r} has arity {self.arity}, "
                f"got point of shape {p.shape}"
            )
        return complex(self.evaluator(*p))

    def sample(self, grid: Grid) -> np.ndarray:
        """Values on every node of ``grid`` (flat, row-major, complex)."""
        if grid.dim != self.arity:
            raise ArityMismatch(
                f"symbol {self.descriptor!r} has arity {self.arity}, "
                f"grid has dimension {grid.dim}"
            )
        return _on_nodes(self.evaluator, grid)

    def sample_finite(self, grid: Grid) -> np.ndarray:
        """:meth:`sample`, raising ``NonFiniteSymbol`` at the first node where
        a value is ``inf`` or ``nan``.

        Overflow and invalid-operation warnings of the evaluation are silenced:
        a value they spoil is reported here, with its node.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = self.sample(grid)
        finite = np.isfinite(values)
        if not finite.all():
            flat = int(np.argmin(finite))
            raise NonFiniteSymbol(
                f"symbol {self.descriptor!r} is not finite at node "
                f"{grid.point_at(flat)}: {values[flat]}"
            )
        return values

    def _combine(self, other, op, tag):
        if isinstance(other, SymbolFunction):
            if other.arity != self.arity:
                raise ArityMismatch(
                    f"cannot combine symbols of arity {self.arity} and {other.arity}"
                )
            f, g = self.evaluator, other.evaluator
            return SymbolFunction(
                self.arity,
                lambda *x: op(f(*x), g(*x)),
                f"({self.descriptor} {tag} {other.descriptor})",
            )
        if isinstance(other, numbers.Number):
            f = self.evaluator
            return SymbolFunction(
                self.arity,
                lambda *x: op(f(*x), other),
                f"({self.descriptor} {tag} {other})",
            )
        return NotImplemented

    def __mul__(self, other):
        return self._combine(other, np.multiply, "*")

    __rmul__ = __mul__

    def __add__(self, other):
        return self._combine(other, np.add, "+")

    __radd__ = __add__


def _polynomial(terms, x, dtype, out: np.ndarray | None = None) -> np.ndarray:
    """``sum c x^j`` over the ``(j, c)`` pairs of ``terms`` at the coordinate
    arrays ``x``, in ``out`` or one new array of ``dtype``: bit for bit the
    sum from zeros of ``dtype`` in term order, each monomial multiplying its
    factors left to right, one axis at a time (``tests/naive.py:polynomial``).

    The constant terms before the first monomial are summed as one scalar,
    which the first monomial, made in the output, is added to; a later
    monomial of the whole shape is made in one scratch array.
    """
    shape = np.broadcast(*x).shape
    total = np.empty(shape, dtype) if out is None else out
    lead = np.zeros((), dtype)
    seeded, scratch = False, None
    for idx, coeff in terms:
        factors = [(np.asarray(x[axis]), power) for axis, power in enumerate(idx) if power]
        if not factors:
            acc = total if seeded else lead
            np.add(acc, coeff, out=acc)
        elif not seeded:
            np.add(lead, _monomial(coeff, factors, total), out=total)
            seeded = True
        else:
            if scratch is None and np.broadcast(*(f for f, _ in factors)).shape == shape:
                scratch = np.empty(shape, dtype)
            np.add(total, _monomial(coeff, factors, scratch), out=total)
    if not seeded:
        total[...] = lead
    return total


def _monomial(coeff, factors, out: np.ndarray | None) -> np.ndarray:
    """``coeff x_a^j_a x_b^j_b ...`` over the ``(x, j)`` pairs of ``factors``,
    multiplied left to right.  A product with the shape and dtype of ``out``
    is made there, a smaller one apart; ``1.0 * y`` is skipped on real
    values, where it is ``y``.  Returns the last product."""
    place = out is not None and np.result_type(coeff, *(f for f, _ in factors)) == out.dtype
    mono = None if place and out.dtype.kind == "f" and coeff == 1.0 else coeff
    for xa, power in factors:
        into = out if place and (xa if np.ndim(mono) == 0 else np.broadcast(mono, xa)).shape == out.shape else None
        # the power is made in ``out`` too while no product is held there;
        # ``x ** 2`` is numpy's square, not its power
        at = into if mono is None or mono is coeff else None
        f = np.square(xa, out=at) if power == 2 else np.power(xa, power, out=at)
        mono = f if mono is None else np.multiply(mono, f, out=into)
    return mono


def _polynomial_symbol(arity: int, terms, descriptor: str) -> SymbolFunction:
    """The polynomial ``sum c x^j`` over the ``(j, c)`` pairs of ``terms``,
    evaluated by :func:`_polynomial` from complex zeros.

    When every ``c`` is real and every degree ``j_i`` even, the symbol is
    marked real and even and keeps its terms with real ``c``.  It then keeps
    its value when any one coordinate changes sign, as at the mirror of an
    index node, which keeps a Nyquist coordinate ``-N_i dp_i / 2`` as it is.
    Summed from real zeros, those terms give the real part of the complex
    sum value for value: a real factor ``x + 0i`` changes a product's real
    part at most in the sign of a zero, and no sum from ``+0.0`` ends at
    ``-0.0``.
    """
    terms = list(terms)
    symbol = SymbolFunction(arity, lambda *x: _polynomial(terms, x, np.complex128), descriptor)
    if all(complex(c).imag == 0.0 and all(k % 2 == 0 for k in idx) for idx, c in terms):
        real_terms = tuple((idx, complex(c).real) for idx, c in terms)
        object.__setattr__(symbol, "_real_terms", real_terms)
    return symbol


def constant_symbol(arity: int, value: complex, descriptor: str | None = None) -> SymbolFunction:
    value = complex(value)
    return SymbolFunction(
        arity,
        lambda *x: np.full(np.broadcast(*x).shape, value),
        descriptor if descriptor is not None else f"const({value})",
    )


def unit_symbol(arity: int) -> SymbolFunction:
    """The constant function 1 on ``R^arity``."""
    return constant_symbol(arity, 1.0, "one")
