"""Literal-definition reference implementations used as oracles by the tests.

Everything here follows the written definitions term by term (O(N^2) sums,
no FFTs) so that the fast library paths can be checked against something
independent.
"""

import csv

import numpy as np

from schwartzcalc import (
    DivisionPolicy,
    GridDistribution,
    NotDivisible,
    NotInvertible,
    coordinates,
    delta_distribution,
    gaussian_probes,
    l2_norm,
    member,
    spectral_apply,
    superpose,
)
from schwartzcalc.families import _centered_signs, point_mass_rows


def naive_superpose(c, family):
    """sum_k c(p_k) * member(p_k) * index cell volume, term by term."""
    index = family.index_grid
    total = np.zeros(family.space_grid.size, dtype=np.complex128)
    for k in range(index.size):
        p = index.point_at(k)
        total += c.samples[k] * member(family, p).samples
    return GridDistribution(family.space_grid, total * index.cell_volume)


def naive_fourier_coordinates(u, family):
    """(2*pi)^-n * dx^n * sum_k u(x_k) exp(+i p.x_k) at every index node."""
    space = family.space_grid
    index = family.index_grid
    pts_x = space.points()
    pts_p = index.points()
    phase = pts_p @ pts_x.T
    coeffs = (
        np.exp(1j * phase) @ u.samples
        * space.cell_volume
        / (2.0 * np.pi) ** space.dim
    )
    return GridDistribution(index, coeffs)


def naive_pairing(u, phi_values):
    """sum_k u(x_k) phi(x_k) * cell volume with plain numpy arithmetic."""
    return complex(np.sum(u.samples * np.asarray(phi_values)) * u.grid.cell_volume)


def literal_solve(v, a, d, policy=None):
    """``u = superpose(q, v)`` with ``q = d_v / a`` off the zero set, step by step.

    Every step goes through public distributions: ``d_v = coordinates(d, v)``;
    the symbol is sampled for the division and again for ``A(u)``; ``q`` is
    the masked quotient (0 on ``|a| <= eps``); the residual is
    ``|superpose(a * coordinates(u, v), v) - d| / |d|``.  Meant for data the
    policy finds divisible (there is no check for mass on the zero set).
    Returns ``(u, q, residual)``.
    """
    policy = policy or DivisionPolicy()
    index = v.index_grid
    d_v = coordinates(d, v)
    a_values = a.sample(index)
    zero_mask = np.abs(a_values) <= policy.resolve_zero_threshold(a_values)
    q = GridDistribution(
        index, np.where(zero_mask, 0.0 + 0.0j, d_v.samples / np.where(zero_mask, 1.0, a_values))
    )
    u = superpose(q, v)
    scaled = GridDistribution(index, a.sample(index) * coordinates(u, v).samples)
    residual = l2_norm(superpose(scaled, v) - d) / l2_norm(d)
    return u, q, residual


def dense_green(lam, l, policy=None, divided=False, mu_rows=None):
    """Green table and weak residuals built densely, step by step.

    The left-inverse table is the analysis of ``eye / cell_volume`` in
    ``lam`` (unless ``mu_rows`` is given); each row is divided by the symbol
    (``* (1/l)``, or ``/ l`` with zero-set entries set to 0 when
    ``divided``); the quotients are synthesised in one batch; and every
    ``L G_p`` is paired with the probes by one dense product.  Returns the
    table (row k = member at the k-th index node) and the residuals
    ``max_phi |<L G_p, phi> - phi(p)|``, raising the library's
    ``NotInvertible``/``NotDivisible`` for the same failures.
    """
    policy = policy or DivisionPolicy()
    space = lam.space_grid
    if mu_rows is None:
        eye = np.eye(space.size, dtype=np.complex128) / space.cell_volume
        mu_rows = lam.coordinates_rows(eye)
    l_values = l.sample(lam.index_grid)
    eps = policy.resolve_zero_threshold(l_values)
    magnitudes = np.abs(l_values)
    zero_mask = magnitudes <= eps
    if divided:
        mass = np.abs(mu_rows)
        allowed = policy.residual_threshold * np.max(mass, axis=1, initial=0.0)
        bad = zero_mask[np.newaxis, :] & (mass > allowed[:, np.newaxis])
        for k in range(bad.shape[0]):
            if bad[k].any():
                point = space.point_at(k)
                raise NotDivisible(
                    "dense oracle", worst_index=k, worst_point=point,
                    magnitude=float(np.max(mass[k][bad[k]])),
                )
        safe = np.where(zero_mask, 1.0, l_values)
        quotient = np.where(zero_mask[np.newaxis, :], 0.0 + 0.0j, mu_rows / safe)
    else:
        if zero_mask.any():
            k = int(np.argmin(magnitudes))
            raise NotInvertible(
                "dense oracle", worst_index=k,
                worst_point=lam.index_grid.point_at(k), magnitude=float(magnitudes[k]),
            )
        quotient = mu_rows * (1.0 / l_values)[np.newaxis, :]
    table = lam.superpose_rows(quotient)
    image = lam.superpose_rows(lam.coordinates_rows(table) * l_values[np.newaxis, :])
    probes, _ = gaussian_probes(space)
    pairs = image @ (probes * space.cell_volume)
    # the index grid is the space grid, so phi(p) are the probe samples
    residuals = np.max(np.abs(pairs - probes), axis=1)
    return table, residuals


def write_distribution_csv(path, dist):
    """The CSV writer as first written: one row at a time from ``grid.points()``,
    every value ``repr`` of a Python float."""
    grid = dist.grid
    pts = grid.points()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"x{i}" for i in range(grid.dim)) + ",re,im\n")
        for row, val in zip(pts, dist.samples):
            coords = ",".join(repr(float(c)) for c in row)
            fh.write(f"{coords},{float(val.real)!r},{float(val.imag)!r}\n")


def read_samples_csv(path):
    """The samples reader as first written, every row held in memory: the
    last two fields of a row are ``re, im``; a row with fewer than two
    fields, or whose last two do not parse as floats, is skipped.  Returns
    the complex values in file order (non-finite ones included)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    values = []
    for row in rows:
        if len(row) < 2:
            continue
        try:
            re_part, im_part = float(row[-2]), float(row[-1])
        except ValueError:
            continue
        values.append(complex(re_part, im_part))
    return np.asarray(values, dtype=np.complex128)


def differential_evaluator(terms, dim):
    """The evaluator ``differential_symbol`` used to build for the
    pre-multiplied ``(multi-index, c * (-i)^|j|)`` pairs of ``terms``."""

    def evaluator(*p):
        total = np.zeros(np.broadcast(*p).shape, dtype=np.complex128)
        for idx, factor in terms:
            mono = factor
            for axis in range(dim):
                if idx[axis]:
                    mono = mono * np.asarray(p[axis]) ** idx[axis]
            total = total + mono
        return total

    return evaluator


def config_polynomial_evaluator(terms):
    """The evaluator the CLI used to build for a ``polynomial`` symbol's
    ``(multi-index, coefficient)`` pairs: each monomial starts as a full array."""

    def evaluator(*coords):
        total = np.zeros(np.broadcast(*coords).shape, dtype=np.complex128)
        for idx, coeff in terms:
            mono = np.full(np.broadcast(*coords).shape, coeff)
            for axis, power in enumerate(idx):
                if power:
                    mono = mono * np.asarray(coords[axis]) ** power
            total = total + mono
        return total

    return evaluator


def dense_from_diagonal_columns(v, a):
    """The matrix of the operator diagonal in ``v``, one ``spectral_apply``
    per unit sample vector, column by column."""
    grid = v.space_grid
    n = grid.size
    matrix = np.empty((n, n), dtype=np.complex128)
    unit = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        unit[k] = 1.0
        matrix[:, k] = spectral_apply(a, v, GridDistribution(grid, unit)).samples
        unit[k] = 0.0
    return matrix


def fourier_analysis_rows(space, rows):
    """The Fourier analysis as first written: ``ifftn``, times the node count,
    an ``fftshift`` copy, the centred signs, then the ``(2 pi)^-n dx^n`` scale."""
    counts = space.counts
    dim = space.dim
    batch = rows.shape[0]
    arr = rows.reshape((batch,) + counts)
    axes = tuple(range(1, dim + 1))
    raw = np.fft.ifftn(arr, axes=axes)
    raw *= space.size
    raw = np.fft.fftshift(raw, axes=axes)
    raw *= _centered_signs(counts)
    raw *= space.cell_volume / (2.0 * np.pi) ** dim
    return raw.reshape(batch, -1)


def fourier_synthesis_rows(space, index, rows):
    """The Fourier synthesis as first written: the centred signs, an
    ``ifftshift`` copy, an out-of-place ``fftn``, then the ``dp^n`` scale."""
    counts = space.counts
    dim = space.dim
    batch = rows.shape[0]
    arr = rows.reshape((batch,) + counts) * _centered_signs(counts)
    axes = tuple(range(1, dim + 1))
    arr = np.fft.ifftshift(arr, axes=axes)
    out = np.fft.fftn(arr, axes=axes)
    out *= index.cell_volume
    return out.reshape(batch, -1)


def l2(samples, grid):
    """The quadrature L2 norm as first written: ``sqrt(sum |u|**2 * dx^n)``,
    with no scaling (it overflows above about 1e154)."""
    return float(np.sqrt(np.sum(np.abs(samples) ** 2) * grid.cell_volume))


def distribution_samples(samples):
    """The sample array ``GridDistribution`` first stored: a complex
    conversion, then a second copy."""
    return np.asarray(samples, dtype=np.complex128).reshape(-1).copy()


# the member and matrix methods of the Dirac, kernel and lazy families, and
# the Green invertibility check, as first written


def dirac_member(family, p):
    return delta_distribution(family.space_grid, p)


def dirac_matrix(family):
    return point_mass_rows(family.space_grid, 0, family.space_grid.size)


def kernel_member(family, p):
    flat = family.index_grid.index_of(p)
    return GridDistribution(family.space_grid, family.kernel[flat])


def kernel_matrix(family):
    return family.kernel


def lazy_member(family, p):
    flat = family.index_grid.index_of(p)
    row = family.rows_map(point_mass_rows(family.index_grid, flat, flat + 1))[0]
    return GridDistribution(family.space_grid, row)


def lazy_matrix(family):
    return family.rows_map(point_mass_rows(family.index_grid, 0, family.index_grid.size))


def check_invertible(lam, l_values, eps):
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
