"""The Fourier core and the sample-array helpers against their first versions.

The analysis and synthesis modulate by ``(-1)^k`` in place of the half-roll
and work in arrays they own; the L2 norm squares one ``|u|`` array in place
and scales out of range data; ``GridDistribution`` copies its input once.
Each is checked against the literal copies kept in ``naive.py`` on every
shape and value class the transforms meet: odd and even ``N/2``, 1-, 2- and
3-d grids, batches, signed zeros, subnormals and values near the ends of the
float range.  Words are compared as unsigned integers, so signed zeros count,
with two exceptions the modulation brings.  An exactly zero output may carry
the other sign.  And the analysis is the FFT of other input, which gives the
first bits only on power-of-two counts; on the others it agrees to
``1e-15`` of the largest entry of its row.
"""

import math
import tracemalloc

import numpy as np
import pytest

from schwartzcalc import (
    DifferentialOperatorSpec,
    FourierFamily,
    GridDistribution,
    NonFiniteSamples,
    SymbolFunction,
    green_family,
    l2_norm,
    left_inverse_family,
    make_grid,
    sample_function,
    solve_pde,
)
from schwartzcalc import families
from schwartzcalc.grid import _l2

import naive

GRIDS = {
    "1d-6": ([6], [2.0]),
    "1d-10": ([10], [3.0]),
    "1d-1024": ([1024], [40.0]),
    "2d-6x10": ([6, 10], [2.0, 3.5]),
    "3d-4x6x10": ([4, 6, 10], [1.0, 2.0, 3.0]),
    "2d-32x16": ([32, 16], [6.0, 4.0]),
    "3d-8x8x8": ([8, 8, 8], [1.0, 2.0, 3.0]),
}

# every sign pattern of a zero in each component, subnormals and extremes
SPECIAL = np.array(
    [
        complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
        complex(1.5, -0.0), complex(-0.0, -2.5), complex(5e-324, -0.0), complex(-2.2e-310, 4e-320),
        complex(1e300, -1e-300), complex(-1e-300, 1e300),
    ]
)


def same_words(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64)
    )


def same_nonzero_words(new, old):
    """``new`` is ``old`` word for word where ``old`` is nonzero, and an
    exact zero of either sign where ``old`` is one."""
    new, old = np.ascontiguousarray(new), np.ascontiguousarray(old)
    if new.dtype != old.dtype or new.shape != old.shape:
        return False
    new, old = new.view(np.float64), old.view(np.float64)
    nonzero = old != 0.0
    return np.array_equal(
        new[nonzero].view(np.uint64), old[nonzero].view(np.uint64)
    ) and np.all(new[~nonzero] == 0.0)


def close_by_rows(new, old, rtol=1e-15):
    """``|new - old| <= rtol * max|old|`` over each row."""
    return new.dtype == old.dtype and new.shape == old.shape and np.all(
        np.abs(new - old) <= rtol * np.max(np.abs(old), axis=1, keepdims=True)
    )


def _rows(size, seed):
    """Three rows: random data with the special values spread through it,
    signed zeros alone, and signed zeros with every third entry special."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    spots = rng.permutation(size)[: SPECIAL.size]
    dense[spots] = SPECIAL[: spots.size]
    zeros = SPECIAL[np.arange(size) % 4]
    sparse = zeros[::-1].copy()
    sparse[::3] = SPECIAL[4 + np.arange(sparse[::3].size) % 6]
    return np.stack([dense, zeros, sparse])


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_transforms_are_bitwise_the_first_versions(name):
    counts, extents = GRIDS[name]
    space = make_grid(len(counts), counts, extents)
    index = FourierFamily(space).index_grid
    rows = _rows(space.size, len(name))
    # the analysis FFT runs on the modulated samples; on power-of-two counts
    # it rounds them as it rounded the samples whose output was rolled
    bitwise_analysis = all(n & (n - 1) == 0 for n in counts)
    # one row, a batch, and real rows, which are promoted the same way
    for batch in (rows[:1], rows, rows.real.copy()):
        new = families._fourier_analysis_rows(space, batch)
        old = naive.fourier_analysis_rows(space, batch)
        assert (same_nonzero_words if bitwise_analysis else close_by_rows)(new, old)
        assert same_nonzero_words(
            families._fourier_synthesis_rows(space, index, batch),
            naive.fourier_synthesis_rows(space, index, batch),
        )


def test_transform_inputs_hold_the_special_values():
    # the comparison above is only as sharp as its data
    rows = _rows(60, 0)
    words = rows.view(np.float64)
    assert np.any(np.signbit(words) & (words == 0.0))
    assert np.any((words != 0.0) & (np.abs(words) < np.finfo(float).tiny))
    assert np.max(np.abs(words)) == 1e300


def test_transforms_leave_their_input_alone():
    space = make_grid(2, [6, 10], [2.0, 3.5])
    rows = _rows(space.size, 1)
    kept = rows.copy()
    families._fourier_analysis_rows(space, rows)
    families._fourier_synthesis_rows(space, FourierFamily(space).index_grid, rows)
    assert same_words(rows, kept)


def test_lazy_green_row_map_is_bitwise_the_first_transforms(monkeypatch):
    g = make_grid(2, [16, 16], [4.0, 4.0])
    lam = FourierFamily(g)
    l = SymbolFunction(2, lambda p, q: 1.0 + p**2 + q**2 + 0.25j * p, "complex helmholtz")
    rows = _rows(g.size, 7)

    def run():
        result = green_family(lam, l, left_inverse_family(lam))
        return result.family.superpose_rows(rows), result.weak_residuals

    new_rows, new_residuals = run()
    monkeypatch.setattr(families, "_fourier_analysis_rows", naive.fourier_analysis_rows)
    monkeypatch.setattr(families, "_fourier_synthesis_rows", naive.fourier_synthesis_rows)
    old_rows, old_residuals = run()
    assert same_nonzero_words(new_rows, old_rows)
    assert same_nonzero_words(new_residuals, old_residuals)


def test_analysis_traced_peak_stays_below_two_arrays():
    """One complex analysis at 2^16 nodes, counted in arrays of ``16 N``
    bytes: the buffer it owns, 1.0 arrays.  It was 2.6 while the FFT output
    was half-rolled into a second array, and 1.6 beside a ``±1`` table."""
    g = make_grid(1, [1 << 16], [40.0])
    rows = _rows(g.size, 0)[:1]
    families._fourier_analysis_rows(g, rows)  # warm-up
    tracemalloc.start()
    try:
        families._fourier_analysis_rows(g, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak /= 16 * g.size
    assert peak < 2, f"peak {peak:.2f} arrays"


def test_solve_pde_is_bitwise_the_first_transforms(monkeypatch):
    g = make_grid(2, [32, 16], [6.0, 4.0])
    spec = DifferentialOperatorSpec({(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    d = sample_function(g, lambda x, y: np.exp(-(x**2 + 2.0 * y**2) / 3.0) * (1 + 0.5j * y))
    new = solve_pde(spec, d)
    monkeypatch.setattr(families, "_fourier_analysis_rows", naive.fourier_analysis_rows)
    monkeypatch.setattr(families, "_fourier_synthesis_rows", naive.fourier_synthesis_rows)
    old = solve_pde(spec, d)
    assert same_words(new.solution.samples, old.solution.samples)
    assert same_words(new.quotient.samples, old.quotient.samples)
    assert same_words(np.float64(new.residual), np.float64(old.residual))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_l2_in_range_is_bitwise_the_first_version(name):
    counts, extents = GRIDS[name]
    g = make_grid(len(counts), counts, extents)
    row = _rows(g.size, 3)[0]
    in_range = np.where(np.abs(row) > 1e150, 1.0, row)
    for scale in (1.0, 1e-140, 1e140):
        samples = in_range * scale
        assert same_words(np.float64(_l2(samples, g)), np.float64(naive.l2(samples, g)))


@pytest.mark.parametrize("peak", [
    0.0, 1.0, 1e150, np.nextafter(1e150, 0.0), np.nextafter(1e150, np.inf), 1e-150,
    np.nextafter(1e-150, 0.0), np.nextafter(1e-150, 1.0), 1e155, 1e300, 1e-160, 5e-324,
])
def test_l2_of_real_samples_is_that_of_their_complex_copy(peak):
    """Real samples are squared with no ``|u|`` array when their largest
    square places ``max|u|`` strictly inside ``[1e-150, 1e150]``: the same
    bits as the complex path, at and beside both ends of that range, on
    small values whose squares underflow, and on a strided real part."""
    g = make_grid(1, [64], [math.pi])
    row = np.sin(np.arange(g.size)) * np.geomspace(1.0, 1e-200, g.size)
    row[7] = -1.0
    real = row * peak
    for samples in (real, (real + 0j).real):
        assert same_words(np.float64(_l2(samples, g)), np.float64(_l2(real + 0j, g)))


@pytest.mark.parametrize("scale", [2.0**532, 2.0**-532, 2.0**1000, 2.0**-1000])
def test_l2_scales_out_of_range_data(scale):
    # a power of two scales every rounding exactly; the literal sum of
    # squares overflows or underflows at these magnitudes
    g = make_grid(1, [64], [math.pi])
    u = sample_function(g, lambda x: np.sin(3 * x) + 0.5j * np.cos(x))
    big = GridDistribution(g, u.samples * scale)
    expected = l2_norm(u) * scale
    assert abs(l2_norm(big) - expected) <= 1e-15 * expected
    with np.errstate(over="ignore", under="ignore"):
        assert naive.l2(big.samples, g) != expected


@pytest.mark.parametrize("scale", [2.0**532, 2.0**-532])
def test_solve_pde_residual_of_scaled_data_matches_unit_data(scale):
    # 2**532 is about 1.4e160, where the literal norm overflowed and the
    # residual read 0.0; a power of two keeps every rounding of the solve
    g = make_grid(1, [64], [math.pi])
    spec = DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
    unit = solve_pde(spec, sample_function(g, lambda x: np.sin(3 * x))).residual
    with np.errstate(over="raise", invalid="raise"):
        scaled = solve_pde(spec, sample_function(g, lambda x: scale * np.sin(3 * x))).residual
    assert 0.0 < unit < 1e-12
    assert abs(scaled - unit) <= 1e-12 * unit


@pytest.mark.parametrize(
    "samples",
    [
        np.linspace(-1.0, 1.0, 12),
        list(SPECIAL) + [1j, -1j],
        (np.arange(24, dtype=np.complex128) * (1 - 2j))[::2],
        np.asfortranarray((np.arange(12.0) - 5.5).reshape(3, 4) * (1 - 1j)),
        list(range(12)),
    ],
    ids=["real", "complex-list", "strided", "fortran", "int-list"],
)
def test_distribution_copies_once_to_the_first_bits(samples):
    g = make_grid(1, [12], [1.0])
    dist = GridDistribution(g, samples)
    assert same_words(dist.samples, naive.distribution_samples(samples))
    assert dist.samples.flags.c_contiguous and not dist.samples.flags.writeable
    assert not np.shares_memory(dist.samples, np.asarray(samples))


def test_real_samples_are_scanned_before_their_complex_copy():
    # a non-finite real input is refused while the traced peak is still the
    # scan's mask of N bytes, before any copy of 16 N bytes; the solve hands
    # its real solution over the same way
    g = make_grid(1, [1 << 16], [40.0])
    x = np.ones(g.size)
    x[-1] = np.inf
    for make in (GridDistribution, GridDistribution._trusted):
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteSamples):
                make(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * g.size, f"peak {peak / g.size:.2f} N bytes"


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_real_transforms_are_the_complex_ones_on_half_spectra(name):
    counts, extents = GRIDS[name]
    g = make_grid(len(counts), counts, extents)
    fam = FourierFamily(g)
    x = np.random.default_rng(5).standard_normal(g.size)
    full = fam.coordinates_rows(x[np.newaxis].astype(np.complex128))[0]
    half = families._fourier_analysis_real(g, x[np.newaxis])[0]
    # the half, spread by the mirror map and the conjugates, is the analysis
    spread = families._from_half(half, g.counts)
    assert np.max(np.abs(spread - full)) <= 1e-14 * np.max(np.abs(full))
    # the mirror map is its own inverse: the gather takes the half back out
    assert np.array_equal(naive.to_half(spread, g.counts), half)
    # the synthesis of the half is the real part of the complex synthesis
    back = families._fourier_synthesis_real(g, fam.index_grid, half[np.newaxis])[0]
    assert back.dtype == np.float64
    assert np.max(np.abs(back - x)) <= 1e-14 * np.max(np.abs(x))
    want = fam.superpose_rows(spread[np.newaxis])[0]
    assert np.max(np.abs(back - want)) <= 1e-14 * np.max(np.abs(want))
