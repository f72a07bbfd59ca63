"""Green kernel families: members solving ``L G_p = delta_p`` for all indices.

Given an operator diagonal in a family ``lam`` with eigenvalue system ``l``,
and a left inverse family ``mu`` (one whose product with ``lam`` is the
Dirac family), the Green member at ``p`` is the synthesis of ``mu_p / l``.
The division is the solver's rule: with the canonical left inverse a member
is what ``solve`` gives for ``delta_p``.  The route is ``"reciprocal"`` when
``l`` has no zero node under the policy, else ``"divided"``: every ``mu_p``
must then be free of mass on the zero set, where its quotient is 0; only
``green_family_divided`` takes that route.

Both the left inverse and the Green family are lazy (``LazyFamily``): a
member is computed from its point mass when asked for, by the same per-row
arithmetic the dense table would use, and no index-by-space table is built
unless ``matrix()`` or ``kernel`` is called.

Since a point mass cannot be compared node by node after applying ``L``, the
Green property is certified weakly: each member is paired against a fixed
set of Gaussian probe functions and the pairing is compared with point
evaluation of the probe at the member's index.  The probes are paired one
at a time, so no index-by-probe table is held.  On the Fourier family with
its canonical left inverse every ``L G_p`` is a periodic translate of one
distribution, so the pairings are FFT cross-correlations with one
generating row; on the Dirac family with its own left inverse ``L G`` is
diagonal; any other left inverse pairs the dense table, which stays the
reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import GridMismatch, NonFiniteSamples, NotDivisible, NotInvertible
from .grid import Grid, SymbolFunction
from .families import DiracFamily, FourierFamily, LazyFamily, SchwartzFamily, _Pair, _transform_pair
from .solver import DivisionPolicy, _masked_quotient, _mass_on_zero_set, _zero_set

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


def _probe(grid: Grid, k: int) -> tuple[np.ndarray, tuple]:
    """The k-th probe of :func:`gaussian_probes`: its samples (flat,
    ``float64``) and its center.  Each axis's term is made on that axis's
    nodes and broadcast, node by node the values the coordinate meshes give."""
    center = tuple(-L + (k + 0.5) * (2.0 * L / PROBE_COUNT) for L in grid.half_extents)
    exponent = 0.0
    for axis in range(grid.dim):
        sigma = PROBE_WIDTH_CELLS * grid.spacings[axis]
        shape = [1] * grid.dim
        shape[axis] = grid.counts[axis]
        exponent = exponent + (((grid.axis_points(axis) - center[axis]) / sigma) ** 2 / 2.0).reshape(shape)
    np.negative(exponent, out=exponent)
    return np.exp(exponent, out=exponent).ravel(), center


def gaussian_probes(grid: Grid) -> tuple[np.ndarray, list]:
    """The documented probe set: 8 Gaussians of width ``4*dx``.

    Centers sit at the midpoints of 8 equal subdivisions of each axis (on
    the box diagonal in several dimensions).  Returns the probe sample
    matrix, shape ``(grid.size, 8)``, and the list of center points.
    """
    columns, centers = zip(*(_probe(grid, k) for k in range(PROBE_COUNT)))
    return np.stack(columns, axis=1).astype(np.complex128), list(centers)


@dataclasses.dataclass(frozen=True)
class GreenFamilyResult:
    """A Green kernel family with its per-index weak residuals.

    ``weak_residuals[k]`` is the worst probe-pairing error of the member at
    the k-th index node: ``max_phi |<L G_p, phi> - phi(p)|``.  ``route`` is
    ``"reciprocal"`` when the symbol has no zero node under the policy, and
    ``"divided"`` when the quotients were set to 0 on its zero set.
    """

    family: LazyFamily
    weak_residuals: np.ndarray
    probe_centers: tuple
    route: str
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


def _pairing(lam: SchwartzFamily, mu: SchwartzFamily) -> str:
    """How ``mu`` is judged on the zero set and ``L G`` paired with the
    probes, decided once: ``"translation"`` when ``lam`` is a Fourier family
    and ``mu`` its canonical left inverse (the Fourier analysis on ``lam``'s
    space grid, from whichever instance), ``"diagonal"`` when both are Dirac
    families, else ``"dense"``."""
    if isinstance(lam, DiracFamily) and isinstance(mu, DiracFamily):
        return "diagonal"
    if (
        type(lam) is FourierFamily
        and isinstance(mu, LazyFamily)
        and getattr(mu.rows_map, "__func__", None) is FourierFamily.coordinates_rows
        and mu.rows_map.__self__.space_grid == lam.space_grid
    ):
        return "translation"
    return "dense"


def _point_mass_values(grid: Grid) -> np.ndarray:
    """One row holding every point mass's one nonzero value, each at its own
    node: the entries of the point-mass table that are not 0."""
    return np.full((1, grid.size), 1.0 / grid.cell_volume, dtype=np.complex128)


def _weak_residuals(space: Grid, pair: _Pair, green: LazyFamily, pairing: str) -> tuple[np.ndarray, list]:
    """The worst probe-pairing error at every index node and the probe
    centers, folded one probe ``phi`` at a time.  The pairings
    ``<L G_p, phi> = sum_m (L G_p)[m] phi[m] dx^n`` at every index node ``p``
    are found as :func:`_pairing` decides:

    * ``"translation"``: ``L G_{p_k}`` is ``h = L G_{p_0}`` shifted by ``k``
      nodes (periodically), so the pairings are the circular
      cross-correlation of ``phi`` with ``h``, from one spectrum of ``h``;
    * ``"diagonal"``: ``L G`` is diagonal, and its diagonal is ``L`` applied
      to the Green map of one row of point-mass values;
    * ``"dense"``: the table ``L G`` paired with every probe in one product.

    ``NonFiniteSamples`` names the first index node whose residual is not
    finite: overflow in ``L G`` is found here, not warned of."""
    worst = np.zeros(space.size)
    centers = []
    with np.errstate(over="ignore", invalid="ignore"):
        if pairing == "dense":
            table = pair.apply(green.matrix()) @ (gaussian_probes(space)[0] * space.cell_volume)
        elif pairing == "translation":
            spectrum = np.fft.fftn(np.conj(pair.apply(green._member_rows(0, 1))).reshape(space.counts))
            np.conjugate(spectrum, out=spectrum)
        else:
            diagonal = pair.apply(green.superpose_rows(_point_mass_values(space)))[0]
        for k in range(PROBE_COUNT):
            probe, center = _probe(space, k)
            if pairing == "dense":
                pairings = table[:, k]
            else:
                pairings = np.multiply(probe, space.cell_volume, out=np.empty(space.size, np.complex128))
            if pairing == "translation":
                phi = pairings.reshape(space.counts)
                np.fft.fftn(phi, out=phi)
                np.multiply(phi, spectrum, out=phi)
                np.fft.ifftn(phi, out=phi)
            elif pairing == "diagonal":
                np.multiply(diagonal, pairings, out=pairings)
            # the index grid is the space grid, so the target phi(p) is the probe's sample at p
            pairings -= probe
            np.maximum(worst, np.abs(pairings), out=worst)
            centers.append(center)
    if not np.isfinite(worst).all():
        flat = int(np.argmin(np.isfinite(worst)))
        raise NonFiniteSamples(
            f"the weak residual at index node {space.point_at(flat)} is {worst[flat]}; samples must all be finite"
        )
    return worst, centers


def _check_divisible(mu: SchwartzFamily, zero_mask: np.ndarray, policy: DivisionPolicy, pairing: str) -> None:
    """Raise ``NotDivisible`` for the first ``mu`` member with mass on the
    zero set, judged as :func:`_pairing` decides.

    * ``"diagonal"``: a member is the point mass at its index node, its one
      and largest value there, so one row of point-mass values judges all.
    * ``"translation"``: member 0, the analysis of the point mass at node 0,
      is exact, so its coefficients share one magnitude and its mass on the
      zero set is its own maximum, the largest ratio any member has.  It
      offends exactly when some member does, and comes first: it alone is
      judged.
    * ``"dense"``: the members are built in blocks of rows, and the scan
      stops at the first block holding an offending row.
    """
    index = mu.index_grid
    if pairing == "diagonal":
        mass, bad = _mass_on_zero_set(_point_mass_values(index)[0], zero_mask, policy)
        if bad.any():
            flat = int(np.argmax(bad))
            raise _not_divisible(index, flat, float(mass[flat]))
        return
    members = 1 if pairing == "translation" else index.size
    block = max(1, CHECK_BLOCK_ENTRIES // mu.space_grid.size)
    for start in range(0, members, block):
        stop = min(start + block, members)
        mass, bad = _mass_on_zero_set(mu._member_rows(start, stop), zero_mask, policy, axis=1)
        bad_rows = np.nonzero(np.any(bad, axis=1))[0]
        if bad_rows.size:
            row = int(bad_rows[0])
            raise _not_divisible(index, start + row, float(np.max(np.where(bad[row], mass[row], 0.0))))


def _not_divisible(index: Grid, flat: int, magnitude: float) -> NotDivisible:
    point = index.point_at(flat)
    return NotDivisible(
        f"left-inverse member at index node {point} has coefficient mass on the symbol's zero set",
        worst_index=flat,
        worst_point=point,
        magnitude=magnitude,
    )


def _green(
    lam: SchwartzFamily,
    l: SymbolFunction,
    mu: SchwartzFamily,
    policy: DivisionPolicy | None,
    divided: bool,
) -> GreenFamilyResult:
    if mu.index_grid != lam.space_grid or mu.space_grid != lam.index_grid:
        raise GridMismatch("a left inverse must be indexed by lam's space grid and live on its index grid")
    policy = policy or DivisionPolicy()
    pairing = _pairing(lam, mu)
    # point masses are real: with the canonical Fourier left inverse they take solve's pair
    real = _transform_pair(lam, l, pairing == "translation")
    full = _transform_pair(lam, l, False) if real.half else real
    eps, zero_mask, huge = _zero_set(full.a_values, policy)
    has_zeros = zero_mask is not None
    if has_zeros:
        if not divided:
            with np.errstate(over="ignore"):
                magnitudes = np.abs(full.a_values)
            flat = int(np.argmin(magnitudes))
            point = lam.index_grid.point_at(flat)
            raise NotInvertible(
                f"symbol magnitude {magnitudes[flat]:.6e} at index node {point} is below "
                f"the invertibility threshold {eps:.6e}",
                worst_index=flat,
                worst_point=point,
                magnitude=float(magnitudes[flat]),
            )
        _check_divisible(mu, zero_mask, policy, pairing)
    real_masks = _zero_set(real.a_values, policy)[1:] if real.half else (zero_mask, huge)

    def rows_map(rows):
        pair, masks = (full, (zero_mask, huge)) if rows.imag.any() else (real, real_masks)
        coeffs = pair.analyse(rows) if pair.half else mu.superpose_rows(rows)
        with np.errstate(over="ignore", invalid="ignore"):  # the weak residuals and member() scan the result
            return pair.synthesise(_masked_quotient(coeffs, pair.a_values, *masks))

    family = LazyFamily(mu.index_grid, lam.space_grid, rows_map)
    residuals, centers = _weak_residuals(lam.space_grid, real, family, pairing)
    route = "divided" if has_zeros else "reciprocal"
    return GreenFamilyResult(family, residuals, tuple(centers), route)


def green_family(
    lam: SchwartzFamily,
    l: SymbolFunction,
    mu: SchwartzFamily,
    policy: DivisionPolicy | None = None,
) -> GreenFamilyResult:
    """Green family ``G_p = superpose(mu_p / l, lam)`` for invertible ``l``,
    on the route ``"reciprocal"``.

    Requires ``|l|`` to stay above the policy's zero threshold on the whole
    index grid (``NotInvertible`` otherwise, ``NonFiniteSymbol`` when ``l`` is
    not finite there) and ``mu`` to be a left inverse of ``lam`` (weak
    residuals certify the combination actually used; ``GridMismatch`` unless
    ``mu`` is indexed by ``lam``'s space grid and lives on its index grid).
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
    equals the product family of the quotients with ``lam``, and its route
    is ``"divided"``.  When ``l`` has no zeros the route is ``"reciprocal"``
    and the result is bitwise that of :func:`green_family`.  A non-finite
    ``l`` raises ``NonFiniteSymbol``.
    """
    return _green(lam, l, mu, policy, divided=True)
