"""Families of grid distributions indexed by a second grid.

A family maps every node ``p`` of an index grid to a member distribution on
a space grid.  Three variants are provided:

* ``DiracFamily`` -- member at ``p`` is the unit point mass at ``p``
  (index grid = space grid).
* ``FourierFamily`` -- member at ``p`` is ``x -> exp(-i p.x)`` with the
  index grid equal to the dual (frequency) lattice of the space grid.
* ``KernelFamily`` -- members given explicitly as rows of a matrix.
* ``LazyFamily`` -- members given by a linear map on coefficient rows; the
  member table is built only when asked for.

Fixed transform convention
--------------------------
Coordinates (analysis):   ``c(p) = (2*pi)^-n * dx^n * sum_k u(x_k) exp(+i p.x_k)``
Superposition (synthesis): ``u(x) = sum_j c(p_j) exp(-i p_j.x) * dp^n``

Because ``dx * dp * N = 2*pi`` per axis, analysis and synthesis are exact
mutual inverses on the grid (up to floating rounding).  The Fourier paths
are computed with FFTs; they agree with the literal sums above to rounding.
For the Dirac family both maps collapse to the identity on samples, which
this module implements exactly.

Everything here is a pure function of immutable values; the one cache,
``KernelFamily``'s SVD, is filled once under a lock.
"""

from __future__ import annotations

import abc
import math
import threading

import numpy as np

from .errors import ArityMismatch, GridMismatch, IllConditioned
from .grid import Grid, GridDistribution, SymbolFunction, delta_distribution, dual_grid

__all__ = [
    "SchwartzFamily",
    "DiracFamily",
    "FourierFamily",
    "KernelFamily",
    "LazyFamily",
    "CoordinateDistribution",
    "member",
    "coordinates",
    "superpose",
    "scale_family",
    "family_product",
]

# Coordinate distributions are ordinary distributions on the index grid; the
# alias only marks intent in signatures.
CoordinateDistribution = GridDistribution

#: Default cap on the condition estimate of a kernel coordinate solve.
DEFAULT_CONDITION_LIMIT = 1e8


def _centered_signs(counts: tuple[int, ...]) -> np.ndarray:
    """``prod_i (-1)^{j_i}`` over the centered index ``j = k - N//2``, shaped ``counts``.

    This is the phase relating the box transforms above to plain DFTs: on the
    nodes ``x_k = -L + k*dx`` one has ``exp(+i p_j x_k) = (-1)^j exp(2i*pi*jk/N)``.
    """
    sign = np.ones(counts)
    for axis, n in enumerate(counts):
        j = np.arange(n) - n // 2
        s = np.where(j % 2 == 0, 1.0, -1.0)
        shape = [1] * len(counts)
        shape[axis] = n
        sign = sign * s.reshape(shape)
    return sign


def _fourier_analysis_rows(space: Grid, rows: np.ndarray) -> np.ndarray:
    """Apply the analysis transform to each row of ``rows`` (batched)."""
    counts = space.counts
    dim = space.dim
    batch = rows.shape[0]
    arr = rows.reshape((batch,) + counts)
    axes = tuple(range(1, dim + 1))
    raw = np.fft.ifftn(arr, axes=axes) * space.size
    raw = np.fft.fftshift(raw, axes=axes)
    raw *= _centered_signs(counts)[np.newaxis]
    raw *= space.cell_volume / (2.0 * math.pi) ** dim
    return raw.reshape(batch, -1)


def _fourier_synthesis_rows(space: Grid, index: Grid, rows: np.ndarray) -> np.ndarray:
    """Apply the synthesis transform to each row of coefficient ``rows``."""
    counts = space.counts
    dim = space.dim
    batch = rows.shape[0]
    arr = rows.reshape((batch,) + counts) * _centered_signs(counts)[np.newaxis]
    axes = tuple(range(1, dim + 1))
    arr = np.fft.ifftshift(arr, axes=axes)
    out = np.fft.fftn(arr, axes=axes) * index.cell_volume
    return out.reshape(batch, -1)


class SchwartzFamily(abc.ABC):
    """Common interface of the family variants."""

    index_grid: Grid
    space_grid: Grid

    @property
    def index_dim(self) -> int:
        return self.index_grid.dim

    @property
    def space_dim(self) -> int:
        return self.space_grid.dim

    @property
    @abc.abstractmethod
    def is_basis(self) -> bool:
        """Whether coordinates/superpose form a two-sided inverse pair."""

    @abc.abstractmethod
    def member(self, p) -> GridDistribution:
        """The member distribution at index point ``p``."""

    @abc.abstractmethod
    def coordinates(self, u: GridDistribution) -> CoordinateDistribution:
        """Coefficients ``c`` on the index grid with ``superpose(c) ~= u``."""

    @abc.abstractmethod
    def superpose(self, c: CoordinateDistribution) -> GridDistribution:
        """Weighted sum ``sum_k c(p_k) member(p_k) * index cell volume``."""

    @abc.abstractmethod
    def matrix(self) -> np.ndarray:
        """Dense member table, shape ``(index size, space size)``; row k is
        the sample vector of the member at the k-th index node."""

    @abc.abstractmethod
    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched :meth:`superpose` over the rows of a 2-d array."""

    @abc.abstractmethod
    def coordinates_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched :meth:`coordinates` over the rows of a 2-d array."""

    def _check_space(self, u: GridDistribution):
        if u.grid != self.space_grid:
            raise GridMismatch("distribution does not live on the family's space grid")

    def _check_index(self, c: GridDistribution):
        if c.grid != self.index_grid:
            raise GridMismatch("coefficients do not live on the family's index grid")


class DiracFamily(SchwartzFamily):
    """Point masses indexed by their own location; the canonical basis.

    With the member normalization ``1/cell_volume`` the analysis and
    synthesis sums collapse exactly to the identity on samples, so both are
    implemented as the identity.
    """

    def __init__(self, space_grid: Grid):
        self.index_grid = space_grid
        self.space_grid = space_grid

    @property
    def is_basis(self) -> bool:
        return True

    def member(self, p) -> GridDistribution:
        return delta_distribution(self.space_grid, p)

    def coordinates(self, u: GridDistribution) -> CoordinateDistribution:
        self._check_space(u)
        return u

    def superpose(self, c: CoordinateDistribution) -> GridDistribution:
        self._check_index(c)
        return c

    def matrix(self) -> np.ndarray:
        n = self.space_grid.size
        return np.eye(n, dtype=np.complex128) / self.space_grid.cell_volume

    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.array(rows, dtype=np.complex128, copy=True)

    def coordinates_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.array(rows, dtype=np.complex128, copy=True)

    def __repr__(self):
        return f"DiracFamily(space_grid={self.space_grid!r})"


class FourierFamily(SchwartzFamily):
    """Plane waves ``x -> exp(-i p.x)`` indexed by the dual lattice."""

    def __init__(self, space_grid: Grid):
        self.space_grid = space_grid
        self.index_grid = dual_grid(space_grid)

    @property
    def is_basis(self) -> bool:
        return True

    def member(self, p) -> GridDistribution:
        # validates that p is an index node before building the wave
        self.index_grid.index_of(p)
        pt = np.atleast_1d(np.asarray(p, dtype=float))
        meshes = self.space_grid.meshes()
        phase = sum(pt[i] * meshes[i] for i in range(self.space_grid.dim))
        return GridDistribution(self.space_grid, np.exp(-1j * phase).ravel())

    def coordinates(self, u: GridDistribution) -> CoordinateDistribution:
        self._check_space(u)
        row = self.coordinates_rows(u.samples[np.newaxis])[0]
        return GridDistribution(self.index_grid, row)

    def superpose(self, c: CoordinateDistribution) -> GridDistribution:
        self._check_index(c)
        row = self.superpose_rows(c.samples[np.newaxis])[0]
        return GridDistribution(self.space_grid, row)

    def matrix(self) -> np.ndarray:
        phase = self.index_grid.points() @ self.space_grid.points().T
        return np.exp(-1j * phase)

    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        return _fourier_synthesis_rows(self.space_grid, self.index_grid, rows)

    def coordinates_rows(self, rows: np.ndarray) -> np.ndarray:
        return _fourier_analysis_rows(self.space_grid, rows)

    def __repr__(self):
        return f"FourierFamily(space_grid={self.space_grid!r})"


class KernelFamily(SchwartzFamily):
    """Family given by an explicit member table.

    Parameters
    ----------
    index_grid, space_grid : Grid
    kernel : array, shape (index size, space size)
        Row k holds the samples of the member at the k-th index node.
    is_basis : bool
        Flag the family as a verified basis (enables its use where a basis
        is required).  :meth:`as_basis` performs the verification.
    condition_limit : float
        Cap on the condition estimate of the coordinate least-squares
        system; beyond it :meth:`coordinates` raises ``IllConditioned``.

    Coordinates are a least-squares surrogate: they minimize the residual of
    the synthesis sum and coincide with exact coordinates whenever the
    members are linearly independent on the grid.
    """

    def __init__(self, index_grid: Grid, space_grid: Grid, kernel,
                 is_basis: bool = False, condition_limit: float = DEFAULT_CONDITION_LIMIT):
        arr = np.asarray(kernel, dtype=np.complex128)
        if arr.shape != (index_grid.size, space_grid.size):
            raise GridMismatch(
                f"kernel shape {arr.shape} does not match "
                f"(index size, space size) = ({index_grid.size}, {space_grid.size})"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("kernel entries must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self.index_grid = index_grid
        self.space_grid = space_grid
        self.kernel = arr
        self._is_basis = bool(is_basis)
        self.condition_limit = float(condition_limit)
        self._svd_cache = None
        self._svd_lock = threading.Lock()

    @property
    def is_basis(self) -> bool:
        return self._is_basis

    def member(self, p) -> GridDistribution:
        flat = self.index_grid.index_of(p)
        return GridDistribution(self.space_grid, self.kernel[flat])

    def superpose(self, c: CoordinateDistribution) -> GridDistribution:
        self._check_index(c)
        return GridDistribution(self.space_grid, self.superpose_rows(c.samples[np.newaxis])[0])

    def coordinates(self, u: GridDistribution) -> CoordinateDistribution:
        self._check_space(u)
        return GridDistribution(self.index_grid, self.coordinates_rows(u.samples[np.newaxis])[0])

    def matrix(self) -> np.ndarray:
        return self.kernel

    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        return (rows * self.index_grid.cell_volume) @ self.kernel

    def _system_svd(self):
        # synthesis system: columns indexed by index nodes, weighted by dp^m
        with self._svd_lock:
            if self._svd_cache is None:
                system = (self.kernel * self.index_grid.cell_volume).T
                self._svd_cache = np.linalg.svd(system, full_matrices=False)
        return self._svd_cache

    def condition_estimate(self) -> float:
        s = self._system_svd()[1]
        if s.size == 0 or s[0] == 0.0:
            return math.inf
        return math.inf if s[-1] == 0.0 else float(s[0] / s[-1])

    def coordinates_rows(self, rows: np.ndarray) -> np.ndarray:
        cond = self.condition_estimate()
        if not (cond <= self.condition_limit):
            raise IllConditioned(
                f"kernel coordinate system condition {cond:.3e} exceeds "
                f"limit {self.condition_limit:.3e}",
                condition=cond,
            )
        u_mat, s, vh = self._system_svd()
        # least-squares via the SVD: c = V diag(1/s) U^H rhs
        proj = (u_mat.conj().T @ rows.T) / s[:, np.newaxis]
        return (vh.conj().T @ proj).T

    def as_basis(self, tol: float = 1e-8, probes: int = 8, seed: int = 0) -> "KernelFamily":
        """Return a basis-flagged copy after verifying round trips on probes.

        Checks ``coordinates(superpose(c)) ~= c`` for random coefficient
        vectors; raises ``NotABasis`` when the relative error exceeds ``tol``.
        """
        from .errors import NotABasis

        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(probes):
            c = rng.standard_normal(self.index_grid.size) + 1j * rng.standard_normal(
                self.index_grid.size
            )
            back = self.coordinates_rows(self.superpose_rows(c[np.newaxis]))[0]
            err = np.max(np.abs(back - c)) / max(np.max(np.abs(c)), 1e-300)
            worst = max(worst, float(err))
        if worst > tol:
            raise NotABasis(
                f"coefficient round trip error {worst:.3e} exceeds {tol:.3e}; "
                "the kernel family does not act as a basis on this grid"
            )
        return KernelFamily(
            self.index_grid, self.space_grid, self.kernel,
            is_basis=True, condition_limit=self.condition_limit,
        )

    def __repr__(self):
        return (
            f"KernelFamily(index_grid={self.index_grid!r}, "
            f"space_grid={self.space_grid!r}, is_basis={self._is_basis})"
        )


def point_mass_rows(grid: Grid, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the point-mass table ``eye(grid.size) / cell_volume``."""
    rows = np.zeros((stop - start, grid.size), dtype=np.complex128)
    rows[np.arange(stop - start), np.arange(start, stop)] = 1.0 / grid.cell_volume
    return rows


class LazyFamily(SchwartzFamily):
    """Family given by a linear map on coefficient rows instead of a table.

    ``rows_map`` takes a 2-d array of coefficient rows on the index grid to
    their superpositions on the space grid, so it *is* :meth:`superpose_rows`.
    The member at ``p`` is the map applied to the point mass at ``p``; the
    dense table (:meth:`matrix`, :attr:`kernel`) is built only on request.
    The family holds no table and no cache.
    """

    def __init__(self, index_grid: Grid, space_grid: Grid, rows_map):
        self.index_grid = index_grid
        self.space_grid = space_grid
        self.rows_map = rows_map

    @property
    def is_basis(self) -> bool:
        return False

    def member(self, p) -> GridDistribution:
        flat = self.index_grid.index_of(p)
        row = self.rows_map(point_mass_rows(self.index_grid, flat, flat + 1))[0]
        return GridDistribution(self.space_grid, row)

    def superpose(self, c: CoordinateDistribution) -> GridDistribution:
        self._check_index(c)
        return GridDistribution(self.space_grid, self.rows_map(c.samples[np.newaxis])[0])

    def coordinates(self, u: GridDistribution) -> CoordinateDistribution:
        self._check_space(u)
        return GridDistribution(self.index_grid, self.coordinates_rows(u.samples[np.newaxis])[0])

    def matrix(self) -> np.ndarray:
        return self.rows_map(point_mass_rows(self.index_grid, 0, self.index_grid.size))

    @property
    def kernel(self) -> np.ndarray:
        """The dense member table, built on every access."""
        return self.matrix()

    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.rows_map(rows)

    def coordinates_rows(self, rows: np.ndarray) -> np.ndarray:
        # least squares needs the table; a fresh KernelFamily keeps this stateless
        table = KernelFamily(self.index_grid, self.space_grid, self.matrix())
        return table.coordinates_rows(rows)

    def __repr__(self):
        return (
            f"LazyFamily(index_grid={self.index_grid!r}, "
            f"space_grid={self.space_grid!r})"
        )


def member(v: SchwartzFamily, p) -> GridDistribution:
    """Member of ``v`` at index node ``p`` (rejects off-grid points)."""
    return v.member(p)


def coordinates(u: GridDistribution, v: SchwartzFamily) -> CoordinateDistribution:
    """Coefficient distribution of ``u`` in the family ``v``."""
    return v.coordinates(u)


def superpose(c: CoordinateDistribution, v: SchwartzFamily) -> GridDistribution:
    """Continuous linear combination ``sum_k c(p_k) v_{p_k} * dp^m``."""
    return v.superpose(c)


def scale_family(a: SymbolFunction, v: SchwartzFamily) -> KernelFamily:
    """Family with members ``a(p) * v_p``; materialized as a kernel table."""
    if a.arity != v.index_dim:
        raise ArityMismatch(
            f"symbol arity {a.arity} does not match family index dimension {v.index_dim}"
        )
    values = a.sample(v.index_grid)
    return KernelFamily(v.index_grid, v.space_grid, values[:, np.newaxis] * v.matrix())


def family_product(mu: SchwartzFamily, lam: SchwartzFamily) -> KernelFamily:
    """Product family with members ``(mu.lam)_p = superpose(mu_p, lam)``.

    Requires ``mu``'s space grid to equal ``lam``'s index grid, i.e. each
    member of ``mu`` is a coefficient distribution for ``lam``.
    """
    if mu.space_grid != lam.index_grid:
        raise GridMismatch(
            "product needs the left family's space grid to be the right "
            "family's index grid"
        )
    rows = lam.superpose_rows(mu.matrix())
    return KernelFamily(mu.index_grid, lam.space_grid, rows)
