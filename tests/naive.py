"""Literal-definition reference implementations used as oracles by the tests.

Everything here follows the written definitions term by term (O(N^2) sums,
no FFTs) so that the fast library paths can be checked against something
independent.
"""

import numpy as np

from schwartzcalc import (
    DivisionPolicy,
    GridDistribution,
    NotDivisible,
    NotInvertible,
    gaussian_probes,
    member,
)


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


def band_limited(rng, family, width):
    """Random distribution supported on the `width` lowest frequencies."""
    n = family.index_grid.size
    c = np.zeros(n, dtype=np.complex128)
    lo, hi = n // 2 - width, n // 2 + width
    c[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    return family.superpose(GridDistribution(family.index_grid, c))


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
