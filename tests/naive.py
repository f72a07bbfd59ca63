"""Literal-definition reference implementations used as oracles by the tests.

Everything here follows the written definitions term by term (O(N^2) sums,
no FFTs) so that the fast library paths can be checked against something
independent.
"""

import csv
from fractions import Fraction

import numpy as np

from schwartzcalc import (
    DivisionPolicy,
    GridDistribution,
    NonFiniteSymbol,
    NotDivisible,
    NotInvertible,
    coordinates,
    gaussian_probes,
    l2_norm,
    member,
    spectral_apply,
    superpose,
)
from schwartzcalc.families import _mirror_index


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


def sample_symbol(a, index):
    """The values of the symbol ``a`` on every node of ``index``, raising
    ``NonFiniteSymbol`` that names the first node, in row-major order, where
    a value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = a.sample(index)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteSymbol(f"symbol {a.descriptor!r} is not finite at node {index.point_at(bad[0])}")
    return values


def literal_solve(v, a, d, policy=None):
    """``u = superpose(q, v)`` with ``q = d_v / a`` off the zero set, step by step.

    Every step goes through public distributions: ``d_v = coordinates(d, v)``;
    the symbol is sampled for the division (:func:`sample_symbol`, which
    raises ``NonFiniteSymbol`` where it is not finite) and again for
    ``A(u)``; ``q`` is
    the masked quotient (0 on ``|a| <= eps``); the residual is
    ``|superpose(a * coordinates(u, v), v) - d| / |d|``.  Meant for data the
    policy finds divisible (there is no check for mass on the zero set).
    Returns ``(u, q, residual)``.
    """
    policy = policy or DivisionPolicy()
    index = v.index_grid
    d_v = coordinates(d, v)
    a_values = sample_symbol(a, index)
    zero_mask = np.abs(a_values) <= policy.resolve_zero_threshold(a_values)
    q = GridDistribution(
        index, np.where(zero_mask, 0.0 + 0.0j, d_v.samples / np.where(zero_mask, 1.0, a_values))
    )
    u = superpose(q, v)
    scaled = GridDistribution(index, a.sample(index) * coordinates(u, v).samples)
    residual = l2_norm(superpose(scaled, v) - d) / l2_norm(d)
    return u, q, residual


def to_half(values, counts):
    """Flat samples on the index grid, gathered onto the half spectrum by the
    library's mirror map: the reference for the half-spectrum sampler."""
    return values.reshape(counts)[_mirror_index(counts)]


def half_signs(shape):
    """``(-1)^(k_0 + k_1 + ...)`` at entry ``k`` of an array of this shape."""
    return (-1.0) ** np.indices(shape).sum(axis=0)


def half_analysis(space, x):
    """The analysis of the real samples ``x`` on the half spectrum, from its
    definition: ``rfftn`` of the samples, then ``(-1)^k`` (the half-roll of
    a centred spectrum) times the ``(2 pi)^-n dx^n`` scale, in one product."""
    out = np.fft.rfftn(np.asarray(x).reshape(space.counts))
    out *= space.cell_volume / (2.0 * np.pi) ** space.dim * half_signs(out.shape)
    return out


def half_synthesis(space, index, half):
    """The synthesis of a half spectrum to real samples (flat): ``(-1)^m``,
    an unnormalised ``irfftn`` (the other half is the conjugate mirror),
    then the ``dp^n`` scale."""
    signed = half * half_signs(half.shape)
    axes = tuple(range(space.dim))
    out = np.fft.irfftn(signed, s=space.counts, axes=axes, norm="forward").reshape(-1)
    out *= index.cell_volume
    return out


def literal_solve_half(fam, a, d, policy=None):
    """:func:`literal_solve` on half spectra, for a real datum ``d`` on the
    Fourier family ``fam`` and a real, even symbol ``a``: the half-spectrum
    solve as first written, with ``A(u)`` synthesised and compared with
    ``d`` on the samples.  The symbol is sampled on the whole index grid and
    its real part gathered onto the half.  Returns ``(u, q, residual)``,
    ``u`` real and ``q`` the half spectrum of the quotient.
    """
    policy = policy or DivisionPolicy()
    space, index = fam.space_grid, fam.index_grid
    a_half = to_half(a.sample(index).real, space.counts)
    d_v = half_analysis(space, d.samples.real)
    zero_mask = np.abs(a_half) <= policy.resolve_zero_threshold(a_half)
    q = np.where(zero_mask, 0.0 + 0.0j, d_v / np.where(zero_mask, 1.0, a_half))
    u = half_synthesis(space, index, q)
    image = half_synthesis(space, index, a_half * half_analysis(space, u))
    residual = l2_norm(GridDistribution(space, image - d.samples.real)) / l2_norm(d)
    return u, q, residual


def literal_apply_half(fam, a, u):
    """``superpose(a * coordinates(u))`` on half spectra, step by step, for a
    real ``u`` on the Fourier family ``fam`` and a real, even symbol ``a``:
    the symbol sampled on the whole index grid, its real part gathered onto
    the half.  Returns the real image (flat ``float64``)."""
    space, index = fam.space_grid, fam.index_grid
    a_half = to_half(a.sample(index).real, space.counts)
    return half_synthesis(space, index, a_half * half_analysis(space, u.samples.real))


def dense_green_half(lam, l, policy=None):
    """The Green table of :func:`dense_green` on half spectra, one member at
    a time, for a real, even ``l`` on the Fourier family ``lam``.

    Member ``k`` is the half analysis of the point mass at the k-th node,
    divided by the symbol gathered onto the half (the quotient is 0 where
    ``|l|`` is at or below the policy's zero threshold), and synthesised to
    real samples.  Returns the real table (row k = member at the k-th node);
    it checks neither invertibility nor divisibility.
    """
    policy = policy or DivisionPolicy()
    space, index = lam.space_grid, lam.index_grid
    a_half = to_half(l.sample(index).real, space.counts)
    zero_mask = np.abs(a_half) <= policy.resolve_zero_threshold(a_half)
    table = np.empty((space.size, space.size))
    deltas = point_masses(space)
    for k in range(space.size):
        mu = half_analysis(space, deltas[k].real)
        q = np.where(zero_mask, 0.0 + 0.0j, mu / np.where(zero_mask, 1.0, a_half))
        table[k] = half_synthesis(space, index, q)
    return table


def dense_green(lam, l, policy=None, divided=False, mu_rows=None):
    """Green table and weak residuals built densely, step by step.

    The left-inverse table is the analysis of ``eye / cell_volume`` in
    ``lam`` (unless ``mu_rows`` is given); each row is divided by the symbol
    (``mu_p / l``, with zero-set entries set to 0 when ``divided``); the
    quotients are synthesised in one batch; every ``L G_p`` is the
    synthesis of ``l * coordinates(G_p)``; and each is paired with the
    probes by one dense product.  Returns the
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
        quotient = mu_rows / l_values[np.newaxis, :]
    table = lam.superpose_rows(quotient)
    image = lam.superpose_rows(l_values[np.newaxis, :] * lam.coordinates_rows(table))
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


def exact_quotient(x, a):
    """``x / a`` for complex arrays, node by node: each part of
    ``x conj(a) / |a|^2`` formed exactly in ``fractions.Fraction`` and
    rounded once to a double (``int / int`` rounds correctly, subnormals
    included)."""
    out = []
    for xv, av in zip(np.ravel(x).tolist(), np.ravel(np.broadcast_to(a, np.shape(x))).tolist()):
        xr, xi, ar, ai = (Fraction(float(v)) for v in (xv.real, xv.imag, av.real, av.imag))
        den = ar * ar + ai * ai
        out.append(complex(float((xr * ar + xi * ai) / den), float((xi * ar - xr * ai) / den)))
    return np.array(out, dtype=np.complex128).reshape(np.shape(x))


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


def polynomial(terms, x, dtype):
    """``sum c x^j`` over the ``(j, c)`` pairs of ``terms`` at the coordinate
    arrays ``x``, as the library first evaluated it: summed from zeros of
    ``dtype``, each monomial a new array, its factors multiplied left to
    right, one axis at a time."""
    total = np.zeros(np.broadcast(*x).shape, dtype=dtype)
    for idx, coeff in terms:
        mono = coeff
        for axis, power in enumerate(idx):
            if power:
                mono = mono * np.asarray(x[axis]) ** power
        total += mono
    return total


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


def centered_signs(counts):
    """``(-1)^(k - N//2)``, multiplied over the axes, at every node ``k`` of a
    grid with these ``counts``; the phase between the box transforms and
    plain DFTs, from its definition."""
    k = np.indices(counts)
    return (-1.0) ** sum(k[axis] - n // 2 for axis, n in enumerate(counts))


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
    raw *= centered_signs(counts)
    raw *= space.cell_volume / (2.0 * np.pi) ** dim
    return raw.reshape(batch, -1)


def fourier_synthesis_rows(space, index, rows):
    """The Fourier synthesis as first written: the centred signs, an
    ``ifftshift`` copy, an out-of-place ``fftn``, then the ``dp^n`` scale."""
    counts = space.counts
    dim = space.dim
    batch = rows.shape[0]
    arr = rows.reshape((batch,) + counts) * centered_signs(counts)
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


def point_masses(grid):
    """The point-mass table: row k is the unit point mass at the k-th node,
    ``1 / cell_volume`` there and 0 elsewhere."""
    return np.eye(grid.size, dtype=np.complex128) / grid.cell_volume


def fourier_table(family):
    """The plane waves ``exp(-i p.x)`` of a Fourier family, row k at the k-th
    index node, from the node coordinates."""
    return np.exp(-1j * (family.index_grid.points() @ family.space_grid.points().T))


def fourier_coordinate_table(family):
    """The members of the Fourier family's left inverse, row k the
    coordinates of the point mass at the k-th space node, each by the
    analysis sum ``(2 pi)^-n dx^n sum_j delta_k(x_j) exp(+i p.x_j)``."""
    space = family.space_grid
    waves = np.exp(1j * (space.points() @ family.index_grid.points().T))
    return point_masses(space) @ waves * space.cell_volume / (2.0 * np.pi) ** space.dim


def scaled_table(a_values, table):
    """The members ``a(p) v_p`` of a scaled family: row k of ``v``'s member
    table times the symbol at the k-th index node."""
    return a_values[:, np.newaxis] * table


def product_table(mu_table, lam_table, lam_index):
    """The members ``superpose(mu_p, lam)`` of a product family, as the sums
    ``sum_j mu_p(q_j) lam_{q_j} dq^n`` over ``lam``'s index nodes."""
    return (mu_table * lam_index.cell_volume) @ lam_table


def pseudo_inverse(table, index):
    """The pseudo-inverse ``P`` of the synthesis ``c -> sum_k c_k table[k] dp^n``
    of the family whose member at the k-th index node is row k of ``table``,
    so that ``rows @ P`` are the least-squares coordinates of sample rows,
    and the condition number of the part it inverts.  numpy's ``pinv``: a
    singular value at or below ``1e-15`` of the largest counts as 0."""
    system = table * index.cell_volume
    inverse = np.linalg.pinv(system)
    return inverse, float(np.linalg.norm(system, 2) * np.linalg.norm(inverse, 2))


# the member and matrix methods of the Dirac, Fourier, kernel and lazy
# families, and the Green invertibility check, as first written


def dirac_member(family, p):
    grid = family.space_grid
    flat = grid.index_of(p)
    samples = np.zeros(grid.size, dtype=np.complex128)
    samples[flat] = 1.0 / grid.cell_volume
    return GridDistribution(grid, samples)


def dirac_matrix(family):
    return point_masses(family.space_grid)


def fourier_member(family, p):
    # validates that p is an index node before building the wave
    family.index_grid.index_of(p)
    pt = np.atleast_1d(np.asarray(p, dtype=float))
    meshes = family.space_grid.meshes()
    phase = sum(pt[i] * meshes[i] for i in range(family.space_grid.dim))
    return GridDistribution(family.space_grid, np.exp(-1j * phase))


def kernel_member(family, p):
    flat = family.index_grid.index_of(p)
    return GridDistribution(family.space_grid, family.kernel[flat])


def kernel_matrix(family):
    return family.kernel


def lazy_member(family, p):
    flat = family.index_grid.index_of(p)
    row = family.rows_map(point_masses(family.index_grid)[flat : flat + 1])[0]
    return GridDistribution(family.space_grid, row)


def lazy_matrix(family):
    return family.rows_map(point_masses(family.index_grid))


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
