"""Green kernel families: members solving ``L G_p = delta_p`` for all indices.

Given an operator diagonal in a family ``lam`` with eigenvalue system ``l``,
and a left inverse family ``mu`` (one whose product with ``lam`` is the
Dirac family), the Green member at ``p`` is the synthesis of ``mu_p / l``.
Two routes are provided: plain reciprocal scaling when ``l`` is bounded away
from zero on the index grid, and thresholded division under a policy when it
is not but every ``mu_p`` stays off the zero set.

Both the left inverse and the Green family are lazy (``LazyFamily``): a
member is computed from its point mass when asked for, by the same per-row
arithmetic the dense table would use, and no index-by-space table is built
unless ``matrix()`` or ``kernel`` is called.

Since a point mass cannot be compared node by node after applying ``L``, the
Green property is certified weakly: each member is paired against a fixed
set of Gaussian probe functions and the pairing is compared with point
evaluation of the probe at the member's index.  On the Fourier family with
its canonical left inverse every ``L G_p`` is a periodic translate of one
distribution, so all pairings come from FFT cross-correlations of one
generating row; any other family pairs the dense table, which stays the
reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NotDivisible, NotInvertible
from .grid import Grid, SymbolFunction
from .families import (
    DiracFamily,
    FourierFamily,
    LazyFamily,
    SchwartzFamily,
    point_mass_rows,
)
from .solver import DivisionPolicy

__all__ = [
    "GreenFamilyResult",
    "left_inverse_family",
    "green_family",
    "green_family_divided",
    "gaussian_probes",
]

#: number of probe functions used for weak residuals
PROBE_COUNT = 8
#: probe width in units of the axis spacing
PROBE_WIDTH_CELLS = 4.0
#: complex entries per block of left-inverse rows scanned by the divisibility check
CHECK_BLOCK_ENTRIES = 1 << 18


def gaussian_probes(grid: Grid) -> tuple[np.ndarray, list]:
    """The documented probe set: 8 Gaussians of width ``4*dx``.

    Centers sit at the midpoints of 8 equal subdivisions of each axis (on
    the box diagonal in several dimensions).  Returns the probe sample
    matrix, shape ``(grid.size, 8)``, and the list of center points.
    """
    meshes = grid.meshes()
    columns = []
    centers = []
    for k in range(PROBE_COUNT):
        center = tuple(
            -L + (k + 0.5) * (2.0 * L / PROBE_COUNT) for L in grid.half_extents
        )
        exponent = 0.0
        for axis in range(grid.dim):
            sigma = PROBE_WIDTH_CELLS * grid.spacings[axis]
            exponent = exponent + ((meshes[axis] - center[axis]) / sigma) ** 2 / 2.0
        columns.append(np.exp(-exponent).ravel())
        centers.append(center)
    return np.stack(columns, axis=1).astype(np.complex128), centers


@dataclasses.dataclass(frozen=True)
class GreenFamilyResult:
    """A Green kernel family with its per-index weak residuals.

    ``weak_residuals[k]`` is the worst probe-pairing error of the member at
    the k-th index node: ``max_phi |<L G_p, phi> - phi(p)|``.
    """

    family: LazyFamily
    weak_residuals: np.ndarray
    probe_centers: tuple
    probe_width_cells: float = PROBE_WIDTH_CELLS

    def max_weak_residual(self) -> float:
        return float(np.max(self.weak_residuals))


def left_inverse_family(lam: SchwartzFamily) -> SchwartzFamily:
    """Family ``mu`` with ``member(mu, p) = coordinates(delta_p, lam)``.

    This is the canonical left inverse: the product ``mu . lam`` resynthesizes
    every point mass, i.e. equals the Dirac family up to rounding.  It is the
    unique choice when ``lam`` has invertible coordinates; for the Dirac
    family it is the Dirac family itself.  Otherwise it is lazy: superposing
    coefficient rows over ``mu`` is analysing them in ``lam``.
    """
    if isinstance(lam, DiracFamily):
        return DiracFamily(lam.space_grid)
    return LazyFamily(lam.space_grid, lam.index_grid, lam.coordinates_rows)


def _image_rows(lam: SchwartzFamily, l_values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``L`` applied to each row: analyse, scale by ``l``, resynthesize."""
    coords = lam.coordinates_rows(rows)
    return lam.superpose_rows(coords * l_values[np.newaxis, :])


def _is_translation_family(lam: SchwartzFamily, mu: SchwartzFamily) -> bool:
    """Whether ``mu`` is the canonical left inverse of a Fourier family."""
    return (
        type(lam) is FourierFamily
        and isinstance(mu, LazyFamily)
        and mu.rows_map == lam.coordinates_rows
        and mu.index_grid == lam.space_grid
    )


def _translate_pairings(
    lam: FourierFamily, l_values: np.ndarray, green: LazyFamily, weighted_probes: np.ndarray
) -> np.ndarray:
    """Probe pairings of every ``L G_p`` from the one at the first index node.

    ``L G_{p_k}`` is ``h = L G_{p_0}`` shifted by ``k`` nodes (periodically),
    so ``<L G_{p_k}, phi> = sum_m h[m - k] phi[m] dx^n`` is a circular
    cross-correlation of ``phi`` with ``h``.
    """
    space = lam.space_grid
    g0 = green.superpose_rows(point_mass_rows(green.index_grid, 0, 1))
    h = _image_rows(lam, l_values, g0)[0].reshape(space.counts)
    axes = tuple(range(1, space.dim + 1))
    phis = weighted_probes.T.reshape((-1,) + space.counts)
    spectra = np.fft.fftn(phis, axes=axes) * np.conj(np.fft.fftn(np.conj(h)))
    return np.fft.ifftn(spectra, axes=axes).reshape(len(phis), -1).T


def _weak_residuals(
    lam: SchwartzFamily, l_values: np.ndarray, green: LazyFamily, mu: SchwartzFamily
) -> tuple[np.ndarray, list]:
    space = lam.space_grid
    index_grid = green.index_grid
    probes, centers = gaussian_probes(space)
    weighted = probes * space.cell_volume
    if _is_translation_family(lam, mu):
        pair_matrix = _translate_pairings(lam, l_values, green, weighted)
    else:
        # L G_p for every p at once from the dense table
        pair_matrix = _image_rows(lam, l_values, green.matrix()) @ weighted
    # target phi(p) for each index node p and probe
    pts = index_grid.points()
    targets = np.empty((index_grid.size, len(centers)), dtype=np.complex128)
    for j, center in enumerate(centers):
        expo = np.zeros(index_grid.size)
        for axis in range(index_grid.dim):
            sigma = PROBE_WIDTH_CELLS * space.spacings[axis]
            expo += ((pts[:, axis] - center[axis]) / sigma) ** 2 / 2.0
        targets[:, j] = np.exp(-expo)
    residuals = np.max(np.abs(pair_matrix - targets), axis=1)
    return residuals, centers


def _check_invertible(lam: SchwartzFamily, l_values: np.ndarray, eps: float) -> None:
    magnitudes = np.abs(l_values)
    flat = int(np.argmin(magnitudes))
    if magnitudes[flat] <= eps:
        raise NotInvertible(
            f"symbol magnitude {magnitudes[flat]:.6e} at index node "
            f"{lam.index_grid.point_at(flat)} is below the invertibility "
            f"threshold {eps:.6e}",
            worst_index=flat,
            worst_point=lam.index_grid.point_at(flat),
            magnitude=float(magnitudes[flat]),
        )


def _check_divisible(mu: SchwartzFamily, zero_mask: np.ndarray, policy: DivisionPolicy) -> None:
    """Raise ``NotDivisible`` for the first ``mu`` member with mass on the zero set.

    The members are built in blocks of rows, and the scan stops at the first
    block holding an offending row.
    """
    index = mu.index_grid
    block = max(1, CHECK_BLOCK_ENTRIES // mu.space_grid.size)
    for start in range(0, index.size, block):
        stop = min(start + block, index.size)
        mass = np.abs(mu.superpose_rows(point_mass_rows(index, start, stop)))
        allowed = policy.residual_threshold * np.max(mass, axis=1, initial=0.0)
        bad = zero_mask[np.newaxis, :] & (mass > allowed[:, np.newaxis])
        bad_rows = np.nonzero(np.any(bad, axis=1))[0]
        if bad_rows.size:
            row = int(bad_rows[0])
            point = index.point_at(start + row)
            raise NotDivisible(
                f"left-inverse member at index node {point} has coefficient mass "
                f"on the symbol's zero set",
                worst_index=start + row,
                worst_point=point,
                magnitude=float(np.max(np.where(bad[row], mass[row], 0.0))),
            )


def _green(
    lam: SchwartzFamily,
    l: SymbolFunction,
    mu: SchwartzFamily,
    policy: DivisionPolicy | None,
    divided: bool,
) -> GreenFamilyResult:
    policy = policy or DivisionPolicy()
    l_values = l.sample(lam.index_grid)
    eps = policy.resolve_zero_threshold(l_values)
    if divided:
        zero_mask = np.abs(l_values) <= eps
        if zero_mask.any():
            _check_divisible(mu, zero_mask, policy)
        safe = np.where(zero_mask, 1.0, l_values)

        def quotient(rows):
            return np.where(zero_mask[np.newaxis, :], 0.0 + 0.0j, rows / safe)
    else:
        _check_invertible(lam, l_values, eps)
        reciprocal = (1.0 / l_values)[np.newaxis, :]

        def quotient(rows):
            return rows * reciprocal

    def rows_map(rows):
        return lam.superpose_rows(quotient(mu.superpose_rows(rows)))

    family = LazyFamily(mu.index_grid, lam.space_grid, rows_map)
    residuals, centers = _weak_residuals(lam, l_values, family, mu)
    return GreenFamilyResult(
        family=family, weak_residuals=residuals, probe_centers=tuple(centers)
    )


def green_family(
    lam: SchwartzFamily,
    l: SymbolFunction,
    mu: SchwartzFamily,
    policy: DivisionPolicy | None = None,
) -> GreenFamilyResult:
    """Green family ``G_p = superpose(mu_p / l, lam)`` for invertible ``l``.

    Requires ``|l|`` to stay above the policy's zero threshold on the whole
    index grid (``NotInvertible`` otherwise) and ``mu`` to be a left inverse
    of ``lam`` (weak residuals certify the combination actually used).
    """
    return _green(lam, l, mu, policy, divided=False)


def green_family_divided(
    lam: SchwartzFamily,
    l: SymbolFunction,
    mu: SchwartzFamily,
    policy: DivisionPolicy | None = None,
) -> GreenFamilyResult:
    """Green family through thresholded division of every ``mu_p`` by ``l``.

    Works when ``l`` has zeros, provided no member of ``mu`` carries
    coefficient mass on the zero set (``NotDivisible`` names the first index
    whose member does).  Zero-set quotient values are set to 0; the result
    equals the product family of the quotients with ``lam``.  When ``l`` has
    no zeros this agrees with :func:`green_family`.
    """
    return _green(lam, l, mu, policy, divided=True)
