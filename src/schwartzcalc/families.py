"""Families of grid distributions indexed by a second grid.

A family maps every node ``p`` of an index grid to a member distribution on
a space grid.  Four variants are provided:

* ``DiracFamily`` -- member at ``p`` is the unit point mass at ``p``
  (index grid = space grid).
* ``FourierFamily`` -- member at ``p`` is ``x -> exp(-i p.x)`` with the
  index grid equal to the dual (frequency) lattice of the space grid.
* ``KernelFamily`` -- members given explicitly as rows of a matrix.
* ``LazyFamily`` -- members given by a linear map on coefficient rows; the
  member table is built only when asked for.

``member`` and ``matrix`` read one row map, ``_member_rows``: by default the
superpositions of point masses, the Dirac family's point masses, the
Fourier family's closed form and the kernel family's table.

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
import collections
import itertools
import math
import threading

import numpy as np

from .errors import ArityMismatch, GridMismatch, IllConditioned, NotABasis, TooLarge
from .grid import Grid, GridDistribution, SymbolFunction, _l2, _polynomial, dual_grid

__all__ = [
    "SchwartzFamily",
    "DiracFamily",
    "FourierFamily",
    "KernelFamily",
    "LazyFamily",
    "CoordinateDistribution",
    "delta_distribution",
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

#: member tables, Green pairings and dense oracles hold at most this squared entries
MAX_DENSE_POINTS = 4096


def _check_dense(rows: int, cols: int) -> None:
    """Raise ``TooLarge`` before allocating a ``rows x cols`` table above the cap."""
    if rows * cols > MAX_DENSE_POINTS**2:
        raise TooLarge(
            f"a dense {rows} x {cols} table exceeds the cap of "
            f"{MAX_DENSE_POINTS} x {MAX_DENSE_POINTS} entries"
        )


def _sign(src: np.ndarray, dst: np.ndarray, parities, scale: float = 1.0) -> np.ndarray:
    """``dst = src * scale * prod_i (-1)^(k_i + parities[i])`` at entry ``k``
    of the trailing axes (``dst`` may be ``src``; real ``src`` is multiplied
    as real).  Each parity class is one product with the scalar ``±scale``,
    the ``±scale + 0i`` factor a table would hold.  A complex times ``±1 + 0i``
    product can change the sign of a zero, so one axis at a time would not do."""
    lead = (slice(None),) * (src.ndim - len(parities))
    for offsets in itertools.product((0, 1), repeat=len(parities)):
        block = lead + tuple(slice(k, None, 2) for k in offsets)
        flips = sum(offsets) + sum(parities)
        np.multiply(src[block], -scale if flips % 2 else scale, out=dst[block])
    return dst


# The counts are even, so by the shift theorem the half-roll of a spectrum is
# the transform of the samples times ``(-1)^k``; on the nodes ``x_k`` the
# centered ``j = k - N//2`` has ``exp(+i p_j x_k) = (-1)^j exp(2i*pi*jk/N)``.
# Each transform signs its input into the one buffer it owns and runs the FFT
# there in place, then the other signs and the scales.  Overflow and invalid
# operations are not warned of: every caller scans the result for finiteness
# and names what is not finite.


def _fourier_analysis_rows(space: Grid, rows: np.ndarray) -> np.ndarray:
    """Apply the analysis transform to each row of ``rows`` (batched)."""
    counts = space.counts
    dim = space.dim
    buf = np.empty((rows.shape[0],) + counts, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        _sign(rows.reshape(buf.shape), buf, [0] * dim)
        np.fft.ifftn(buf, axes=tuple(range(1, dim + 1)), out=buf)
        buf *= space.size
        _sign(buf, buf, [n // 2 for n in counts])
        buf *= space.cell_volume / (2.0 * math.pi) ** dim
    return buf.reshape(rows.shape[0], -1)


def _fourier_synthesis_rows(space: Grid, index: Grid, rows: np.ndarray) -> np.ndarray:
    """Apply the synthesis transform to each row of coefficient ``rows``."""
    counts = space.counts
    buf = np.empty((rows.shape[0],) + counts, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        _sign(rows.reshape(buf.shape), buf, [n // 2 for n in counts])
        np.fft.fftn(buf, axes=tuple(range(1, space.dim + 1)), out=buf)
        _sign(buf, buf, [0] * space.dim)
        buf *= index.cell_volume
    return buf.reshape(rows.shape[0], -1)


# Real samples have Hermitian coefficients, c(-p) = conj(c(p)), so half of the
# index grid fixes the other half.  The real transforms below keep the half
# that ``rfftn`` stores: entry ``m`` (``0 <= m < N`` on the leading axes,
# ``0 <= m <= N/2`` on the last) holds the coefficient at the centered index
# ``j = -m`` (mod N), the nodes with ``j_last <= 0``.  There
# ``(-1)^j = (-1)^m``, and the DFT sum of the analysis is rfftn's own.


def _mirror_nodes(counts: tuple[int, ...], dtype=int) -> list[np.ndarray]:
    """Per axis, the node of the centered index grid at each entry of the
    half spectrum, as ``dtype``: entry ``m`` and node ``k = (N/2 - m) mod N``
    are the same index ``j = -m``.  On the last axis, where ``m <= N/2``,
    that is ``N/2, N/2 - 1, ..., 0``."""
    *lead, n = counts
    return [(c // 2 - np.arange(c, dtype=dtype)) % c for c in lead] + [np.arange(n // 2, -1, -1, dtype=dtype)]


def _mirror_index(counts: tuple[int, ...]) -> tuple:
    """Index between the half spectrum and the centered index grid, by
    :func:`_mirror_nodes`.  The map is its own inverse, so it gathers either
    way; on the last axis it is a reversal."""
    return np.ix_(*_mirror_nodes(counts)[:-1]) + (slice(counts[-1] // 2, None, -1),)


def _sample_half(a: SymbolFunction, index: Grid) -> np.ndarray:
    """A real, even polynomial symbol on the half spectrum of ``index``, as
    ``float64``, with no complex array and no other node.

    It is evaluated at the nodes :func:`_mirror_nodes` gathers, not at
    ``-m dp``: the lattice ``-L + k dp`` is not exactly symmetric, so only
    the gathered nodes give the values of the reference gather
    ``tests/naive.py:to_half`` bit for bit.  Overflow is left for the caller
    to find as a non-finite value.  Each axis's node numbers are made as
    ``float64`` and turned into its nodes in place, so in 1-d the sample
    peaks at twice its result.  The result is allocated before the nodes:
    allocated after them, it left the benchmark's ``lib-solve-1d`` at
    180.6 MiB peak RSS instead of 168.5, by where the allocator placed it.
    """
    out = np.empty(index.counts[:-1] + (index.counts[-1] // 2 + 1,))
    nodes = []
    for axis, k in enumerate(_mirror_nodes(index.counts, np.float64)):
        shape = [1] * index.dim
        shape[axis] = k.size
        nodes.append(index._axis_nodes(axis, k).reshape(shape))
    with np.errstate(over="ignore", invalid="ignore"):
        return _polynomial(a._real_terms, nodes, np.float64, out)


def _negated_lead(counts: tuple[int, ...]) -> tuple:
    """Index of ``(-k) mod N`` on every axis but the last.  On the grid,
    node ``k`` holds ``j = k - N/2`` and node ``-k`` holds ``-j``; on the
    half, entry ``m`` holds ``j = -m`` and entry ``-m`` holds ``-j``."""
    return np.ix_(*[-np.arange(c) % c for c in counts[:-1]])


def _from_half(half: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """The coefficients of a real function on the whole index grid (flat,
    complex) from its half spectrum: the stored nodes by the mirror map, the
    nodes with ``j_last > 0`` as the conjugates of the nodes ``-j``."""
    n = counts[-1]
    full = np.empty(counts, dtype=np.complex128)
    full[..., : n // 2 + 1] = half[_mirror_index(counts)]
    negated = _negated_lead(counts) + (slice(n // 2 - 1, 0, -1),)
    np.conjugate(full[negated], out=full[..., n // 2 + 1 :])
    return full.reshape(-1)


def _half_l2(coeffs: np.ndarray, index: Grid) -> float:
    """The quadrature norm on ``index`` of the real function's coefficients
    that the half spectrum ``coeffs`` stands for; ``coeffs`` is overwritten.

    Every entry off the last-axis planes ``m = 0`` and ``m = N/2`` stands for
    itself and its conjugate mirror.  Those two planes hold their own
    mirrors, where a real function's coefficients have ``c(-j) = conj(c(j))``:
    only that Hermitian part counts, the part ``irfftn`` reads.  Rounding
    leaves the rest there in two and more dimensions.
    """
    negated = _negated_lead(coeffs.shape)
    for plane in (coeffs[..., 0], coeffs[..., -1]):
        plane[...] = (plane + plane[negated].conj()) / 2
    own = _l2(coeffs[..., [0, -1]], index)
    return math.hypot(own, math.sqrt(2.0) * _l2(coeffs[..., 1:-1], index))


def _fourier_analysis_real(space: Grid, rows: np.ndarray) -> np.ndarray:
    """The analysis transform of each row of real samples, on half spectra:
    ``rfftn`` and one pass by the signed scale."""
    axes = tuple(range(1, space.dim + 1))
    scale = space.cell_volume / (2.0 * math.pi) ** space.dim
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.fft.rfftn(rows.reshape((-1,) + space.counts), axes=axes)
        return _sign(out, out, [0] * space.dim, scale)


def _fourier_synthesis_real(space: Grid, index: Grid, rows: np.ndarray) -> np.ndarray:
    """The synthesis transform of each row of half spectra to real samples:
    the signs in place (``rows`` is overwritten), ``irfftn`` unnormalised (it
    takes the other half as the conjugate mirror), then the scale."""
    axes = tuple(range(1, space.dim + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        signed = _sign(rows, rows, [0] * space.dim)
        out = np.fft.irfftn(signed, s=space.counts, axes=axes, norm="forward").reshape(len(rows), -1)
        out *= index.cell_volume
    return out


class _Pair(collections.namedtuple("_Pair", "analyse synthesise a_values l2 to_full half")):
    """A transform pair, ``half`` or complex: ``analyse`` takes rows of
    samples to new rows of coefficients and ``synthesise`` back (the half
    pair overwrites them); ``a_values`` is the symbol on the coefficients'
    nodes; ``l2`` is the index grid's quadrature norm of one coefficient
    array and ``to_full`` spreads one over the index grid."""

    __slots__ = ()

    def scaled(self, rows: np.ndarray) -> np.ndarray:
        """The integrands ``a * coordinates`` of each row, scaled in place
        (the symbol first: numpy's complex product is not bitwise commutative).
        A product that overflows is left for the caller's finiteness scan."""
        coords = self.analyse(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.multiply(self.a_values, coords, out=coords)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """The diagonal operator on each row: analyse, scale by the symbol,
        resynthesise; the images."""
        return self.synthesise(self.scaled(rows))


def _transform_pair(v: "SchwartzFamily", a: SymbolFunction, real: bool) -> _Pair:
    """The transform pair of the operator diagonal in ``v`` with symbol ``a``
    (``ArityMismatch`` if ``a`` does not fit ``v``) on rows that are
    ``real`` (every imaginary part 0) or not known to be.  The half pair
    (``rfftn``/``irfftn``, the symbol sampled on the half only) for real
    rows when ``v`` is a Fourier family and ``a`` is known to be real and
    even; otherwise, or when that sample is not finite, the complex pair:
    ``v``'s row transforms and the symbol on the whole index grid, where
    ``NonFiniteSymbol`` names the first non-finite node."""
    v._check_symbol(a)
    space, index = v.space_grid, v.index_grid
    if real and a._real_even and isinstance(v, FourierFamily):
        a_half = _sample_half(a, index)
        if np.isfinite(a_half).all():
            return _Pair(lambda x: _fourier_analysis_real(space, x.real),
                         lambda c: _fourier_synthesis_real(space, index, c),
                         a_half, _half_l2, lambda c: _from_half(c, space.counts), True)
    return _Pair(v.coordinates_rows, v.superpose_rows, a.sample_finite(index), _l2, lambda c: c, False)


class SchwartzFamily(abc.ABC):
    """Common interface of the family variants."""

    index_grid: Grid
    space_grid: Grid
    #: ``k`` with ``|superpose(c)| = k |c|`` for every ``c``, each in its own
    #: grid's quadrature norm, when the family has one (Parseval)
    _parseval: float | None = None

    @property
    def index_dim(self) -> int:
        return self.index_grid.dim

    @property
    @abc.abstractmethod
    def is_basis(self) -> bool:
        """Whether coordinates/superpose form a two-sided inverse pair."""

    def member(self, p) -> GridDistribution:
        """The member distribution at index point ``p`` (``IndexOffGrid`` off the grid)."""
        flat = self.index_grid.index_of(p)
        return GridDistribution._trusted(self.space_grid, self._member_rows(flat, flat + 1)[0])

    def coordinates(self, u: GridDistribution) -> CoordinateDistribution:
        """Coefficients ``c`` on the index grid with ``superpose(c) ~= u``."""
        self._check_space(u)
        row = self.coordinates_rows(u.samples[np.newaxis])[0]
        return GridDistribution._trusted(self.index_grid, row)

    def superpose(self, c: CoordinateDistribution) -> GridDistribution:
        """Weighted sum ``sum_k c(p_k) member(p_k) * index cell volume``."""
        self._check_index(c)
        row = self.superpose_rows(c.samples[np.newaxis])[0]
        return GridDistribution._trusted(self.space_grid, row)

    def matrix(self) -> np.ndarray:
        """Dense member table, shape ``(index size, space size)``; row k is
        the sample vector of the member at the k-th index node."""
        return self._member_rows(0, self.index_grid.size)

    def _member_rows(self, start: int, stop: int) -> np.ndarray:
        """Members at flat index nodes ``start:stop`` as rows: the
        superpositions of the point masses there."""
        return self.superpose_rows(point_mass_rows(self.index_grid, start, stop))

    @abc.abstractmethod
    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched :meth:`superpose` over the rows of a 2-d array, returned as
        a new array that the caller may keep."""

    @abc.abstractmethod
    def coordinates_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched :meth:`coordinates` over the rows of a 2-d array, returned
        as a new array that the caller may keep."""

    def _check_space(self, u: GridDistribution):
        if u.grid != self.space_grid:
            raise GridMismatch("distribution does not live on the family's space grid")

    def _check_index(self, c: GridDistribution):
        if c.grid != self.index_grid:
            raise GridMismatch("coefficients do not live on the family's index grid")

    def _check_symbol(self, a: SymbolFunction):
        if a.arity != self.index_dim:
            raise ArityMismatch(
                f"symbol arity {a.arity} does not match index dimension {self.index_dim}"
            )


class DiracFamily(SchwartzFamily):
    """Point masses indexed by their own location; the canonical basis.

    With the member normalization ``1/cell_volume`` the analysis and
    synthesis sums collapse exactly to the identity on samples, so both are
    implemented as the identity.
    """

    _parseval = 1.0

    def __init__(self, space_grid: Grid):
        self.index_grid = space_grid
        self.space_grid = space_grid

    @property
    def is_basis(self) -> bool:
        return True

    def _member_rows(self, start: int, stop: int) -> np.ndarray:
        return point_mass_rows(self.index_grid, start, stop)

    def superpose_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.array(rows, dtype=np.complex128, copy=True)

    coordinates_rows = superpose_rows

    def __repr__(self):
        return f"DiracFamily(space_grid={self.space_grid!r})"


class FourierFamily(SchwartzFamily):
    """Plane waves ``x -> exp(-i p.x)`` indexed by the dual lattice; the member
    rows are the closed form at the index nodes, other arithmetic than the FFTs."""

    def __init__(self, space_grid: Grid):
        self.space_grid = space_grid
        self.index_grid = dual_grid(space_grid)
        # dx dp N = 2 pi per axis turns the DFT's Parseval identity into this
        self._parseval = (2.0 * math.pi) ** (space_grid.dim / 2)

    @property
    def is_basis(self) -> bool:
        return True

    def _member_rows(self, start: int, stop: int) -> np.ndarray:
        # p.x summed over the axes from 0 (a -0.0 phase is +0.0), one product per axis
        _check_dense(stop - start, self.space_grid.size)
        nodes = np.unravel_index(np.arange(start, stop), self.index_grid.counts)
        phase = sum(
            self.index_grid._axis_nodes(axis, k.astype(np.float64))[:, np.newaxis] * mesh.reshape(-1)
            for axis, (k, mesh) in enumerate(zip(nodes, self.space_grid.meshes()))
        )
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
        arr = np.array(kernel, dtype=np.complex128, order="C")
        if arr.shape != (index_grid.size, space_grid.size):
            raise GridMismatch(
                f"kernel shape {arr.shape} does not match "
                f"(index size, space size) = ({index_grid.size}, {space_grid.size})"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("kernel entries must all be finite")
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

    def _member_rows(self, start: int, stop: int) -> np.ndarray:
        return self.kernel[start:stop]  # a read-only view

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
        vectors; raises ``NotABasis`` when the relative error exceeds ``tol``
        and ``ValueError`` when there is no probe or ``tol`` is NaN.
        """
        if probes < 1 or math.isnan(tol):
            raise ValueError(f"as_basis needs probes >= 1 and a tol that is not NaN, got {probes}, {tol}")
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
    _check_dense(stop - start, grid.size)
    rows = np.zeros((stop - start, grid.size), dtype=np.complex128)
    rows[np.arange(stop - start), np.arange(start, stop)] = 1.0 / grid.cell_volume
    return rows


class LazyFamily(SchwartzFamily):
    """Family given by a linear map on coefficient rows instead of a table.

    ``rows_map`` takes a 2-d array of coefficient rows on the index grid to
    their superpositions on the space grid, so it *is* :meth:`superpose_rows`
    and returns a new array.  The member at ``p`` is the map applied to the
    point mass at ``p``; the dense table (:meth:`matrix`, :attr:`kernel`) is
    built only on request.  The family holds no table and no cache.
    """

    def __init__(self, index_grid: Grid, space_grid: Grid, rows_map):
        self.index_grid = index_grid
        self.space_grid = space_grid
        self.rows_map = rows_map

    @property
    def is_basis(self) -> bool:
        return False

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


def delta_distribution(grid: Grid, point) -> GridDistribution:
    """The unit point mass at a grid node, the Dirac member there:
    ``1/cell_volume`` at the node and zero elsewhere, so that
    ``pairing(delta_p, phi) == phi(p)`` under the box quadrature."""
    return DiracFamily(grid).member(point)


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
    v._check_symbol(a)
    values = a.sample_finite(v.index_grid)
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
