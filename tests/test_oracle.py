import math

import numpy as np
import pytest

from schwartzcalc import (
    DenseOperator,
    DifferentialOperatorSpec,
    FourierFamily,
    KernelFamily,
    SymbolFunction,
    TooLarge,
    UnsupportedOrder,
    dense_from_diagonal,
    finite_difference,
    make_grid,
    sample_function,
    spectral_apply,
    sup_norm,
    unit_symbol,
)

from schwartzcalc.verify import _band_limited as band_limited


def test_dense_from_diagonal_unit_symbol_is_identity():
    g = make_grid(1, [32], [2.0])
    fam = FourierFamily(g)
    dense = dense_from_diagonal(fam, unit_symbol(1))
    np.testing.assert_allclose(dense.matrix, np.eye(32), atol=1e-12)


def test_dense_derivative_matrix_maps_sin_to_cos():
    g = make_grid(1, [64], [math.pi])
    fam = FourierFamily(g)
    dense = dense_from_diagonal(fam, SymbolFunction(1, lambda p: -1j * p, "-ip"))
    u = sample_function(g, np.sin)
    out = dense.apply(u)
    exact = sample_function(g, np.cos)
    assert sup_norm(out - exact) <= 1e-8


def test_dense_matches_spectral_apply_on_probes():
    g = make_grid(1, [128], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    dense = dense_from_diagonal(fam, a)
    rng = np.random.default_rng(30)
    for _ in range(16):
        u = band_limited(rng, fam, 30)
        gap = dense.apply(u) - spectral_apply(a, fam, u)
        assert (
            np.linalg.norm(gap.samples) <= 1e-12 * np.linalg.norm(u.samples)
        )


def test_dense_oracle_size_cap():
    g = make_grid(1, [8192], [10.0])
    fam = FourierFamily(g)
    with pytest.raises(TooLarge):
        dense_from_diagonal(fam, unit_symbol(1))
    with pytest.raises(TooLarge):
        finite_difference(DifferentialOperatorSpec({(1,): 1.0}), g)


def test_finite_difference_second_derivative_eigenvalue():
    # d2/dx2 acting on exp(ix): the order-2 stencil gives the symbol
    # -sin^2(dx/2)/(dx/2)^2, i.e. -1 + O(dx^2)
    g = make_grid(1, [64], [math.pi])
    fd = finite_difference(DifferentialOperatorSpec({(2,): 1.0}), g, order=2)
    wave = sample_function(g, lambda x: np.exp(1j * x))
    out = fd.apply(wave)
    ratio = out.samples[5] / wave.samples[5]
    dx = g.spacings[0]
    assert abs(ratio + 1.0) <= dx**2 / 6.0
    assert abs(ratio + 1.0) >= dx**2 / 24.0  # genuinely second order, not exact


def test_finite_difference_zero_and_identity_specs():
    g = make_grid(1, [16], [1.0])
    zero = finite_difference(DifferentialOperatorSpec({}), g)
    assert np.all(zero.matrix == 0)
    ident = finite_difference(DifferentialOperatorSpec({(0,): 1.0}), g)
    np.testing.assert_allclose(ident.matrix, np.eye(16), atol=1e-15)


def test_finite_difference_unsupported_order():
    g = make_grid(1, [16], [1.0])
    with pytest.raises(UnsupportedOrder):
        finite_difference(DifferentialOperatorSpec({(1,): 1.0}), g, order=3)


def test_finite_difference_convergence_rate_order2():
    # halving dx divides the error by about 4
    spec = DifferentialOperatorSpec({(1,): 1.0})
    errors = {}
    for n in (64, 128):
        g = make_grid(1, [n], [4.0])
        fd = finite_difference(spec, g, order=2)
        u = sample_function(g, lambda x: np.exp(-(x**2)))
        exact = sample_function(g, lambda x: -2 * x * np.exp(-(x**2)))
        errors[n] = sup_norm(fd.apply(u) - exact)
    ratio = errors[64] / errors[128]
    assert 3.5 <= ratio <= 4.5


def test_finite_difference_2d_mixed_term():
    # d^2/dxdy via the (1,1) multi-index: kron of two first-derivative stencils
    g = make_grid(2, [32, 32], [math.pi, math.pi])
    fd = finite_difference(DifferentialOperatorSpec({(1, 1): 1.0}), g, order=4)
    u = sample_function(g, lambda x, y: np.sin(x) * np.sin(y))
    exact = sample_function(g, lambda x, y: np.cos(x) * np.cos(y))
    assert sup_norm(fd.apply(u) - exact) <= 1e-4


def test_transposed_matrices_are_accepted_and_still_checked():
    g = make_grid(1, [8], [2.0])
    m = np.random.default_rng(3).standard_normal((8, 8)) + 1j * np.arange(64.0).reshape(8, 8)
    transposed, copied = m.T, np.ascontiguousarray(m.T)
    assert not transposed.flags.c_contiguous
    np.testing.assert_array_equal(
        DenseOperator(g, transposed).matrix, DenseOperator(g, copied).matrix
    )
    np.testing.assert_array_equal(
        KernelFamily(g, g, transposed).kernel, KernelFamily(g, g, copied).kernel
    )
    bad = m.copy()
    bad[2, 5] = np.nan
    with pytest.raises(ValueError):
        DenseOperator(g, bad.T)
    with pytest.raises(ValueError):
        KernelFamily(g, g, bad.T)
