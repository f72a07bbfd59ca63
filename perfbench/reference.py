"""Inputs and independent reference results, in plain numpy only.

Nothing here imports schwartzcalc: the checks must not share code with the
program they check.  Grids follow the program's convention: ``n`` nodes per
axis at ``x_k = -L + k*dx``, ``dx = 2L/n``; frequencies ``q_j = j*pi/L`` for
``j in [-n/2, n/2)``.  The operator is ``1 - Laplacian``, whose symbol on the
Fourier family ``exp(-i q.x)`` is ``l(q) = 1 + |q|^2``.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: relative tolerance of every reference check (the program matches the
#: references to about 2e-15)
REL_TOL = 1e-10


def axis_points(n, half_extent):
    return -half_extent + (2.0 * half_extent / n) * np.arange(n)


def band_limited(rng, shape, band):
    """Real field whose Fourier modes vanish beyond ``band`` on every axis,
    scaled to unit sup norm."""
    coeffs = np.zeros(shape, dtype=np.complex128)
    low = tuple(np.r_[0:band + 1, -band:0] for _ in shape)
    block = tuple(len(ix) for ix in low)
    coeffs[np.ix_(*low)] = rng.standard_normal(block) + 1j * rng.standard_normal(block)
    field = np.fft.ifftn(coeffs).real
    return field / np.max(np.abs(field))


def solve_reference(datum, half_extent):
    """Periodic solution of ``(1 - Laplacian) u = datum`` on ``[-L, L)^dim``."""
    ks = [2.0 * np.pi * np.fft.fftfreq(n, 2.0 * half_extent / n) for n in datum.shape]
    k2 = sum(k**2 for k in np.meshgrid(*ks, indexing="ij", sparse=True))
    return np.fft.ifftn(np.fft.fftn(datum) / (1.0 + k2))


def green_reference(n, half_extent, p):
    """Green member of ``1 - Laplacian`` at node ``p`` of the 2-d grid, from
    the closed-form sum ``sum_q (2pi)^-2 e^{iq.p} / l(q) e^{-iq.x} dp^2``."""
    dp = np.pi / half_extent
    q = dp * np.arange(-n // 2, n // 2)
    x = axis_points(n, half_extent)
    inv_l = 1.0 / (1.0 + q[:, None] ** 2 + q[None, :] ** 2)
    e0 = np.exp(1j * np.outer(q, p[0] - x))
    e1 = np.exp(1j * np.outer(q, p[1] - x))
    return (e0.T @ inv_l @ e1) * dp**2 / (2.0 * np.pi) ** 2


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def write_samples_csv(path, field, half_extent):
    """Write a real 2-d field in the program's CSV format, ``x0,x1,re,im``
    per node in row-major order, with every float written exactly."""
    x = axis_points(field.shape[0], half_extent).tolist()
    y = axis_points(field.shape[1], half_extent).tolist()
    xs = [repr(v) for v in x]
    ys = [repr(v) for v in y]
    values = field.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x0,x1,re,im\n")
        for i, row in enumerate(values):
            xi = xs[i]
            fh.write("".join(f"{xi},{yj},{v!r},0.0\n" for yj, v in zip(ys, row)))


def check_grid_csv(path, n, half_extent, want):
    """Relative error of a program CSV against ``want`` (shape ``(n, n)``);
    ``inf`` when the coordinate columns are not the grid's nodes."""
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    x = axis_points(n, half_extent)
    x0, x1 = np.meshgrid(x, x, indexing="ij")
    atol = 1e-12 * half_extent
    if table.shape != (n * n, 4) or not (
        np.allclose(table[:, 0], x0.ravel(), rtol=0, atol=atol)
        and np.allclose(table[:, 1], x1.ravel(), rtol=0, atol=atol)
    ):
        return float("inf")
    got = (table[:, 2] + 1j * table[:, 3]).reshape(n, n)
    return relative_error(got, want)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
