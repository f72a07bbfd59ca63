import math

import numpy as np
import pytest

from schwartzcalc import (
    ArityMismatch,
    DifferentialOperator,
    DifferentialOperatorSpec,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    NotDivisible,
    SymbolFunction,
    coordinates,
    differential_symbol,
    divide,
    dual_grid,
    make_grid,
    sample_function,
    solve,
    solve_pde,
    spectral_apply,
    superpose,
    sup_norm,
    unit_symbol,
)
from schwartzcalc.oracle import finite_difference

from schwartzcalc.verify import _band_limited as band_limited


def test_differential_symbol_first_derivative():
    g = make_grid(1, [16], [math.pi])
    spec = DifferentialOperatorSpec({(1,): 1.0})
    sym = differential_symbol(spec, dual_grid(g))
    p = dual_grid(g).axis_points(0)
    np.testing.assert_allclose(sym.sample(dual_grid(g)), -1j * p, atol=1e-14)


def test_differential_symbol_helmholtz():
    g = make_grid(1, [16], [math.pi])
    dg = dual_grid(g)
    spec = DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
    sym = differential_symbol(spec, dg)
    p = dg.axis_points(0)
    np.testing.assert_allclose(sym.sample(dg), 1.0 + p**2, atol=1e-13)


def test_differential_symbol_matches_fd_eigen_probe():
    # the polynomial symbol agrees with the eigenvalue the difference matrix
    # assigns to a resolved plane wave
    g = make_grid(1, [256], [8.0])
    fam = FourierFamily(g)
    spec = DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
    sym = differential_symbol(spec, fam.index_grid)
    fd = finite_difference(spec, g, order=4)
    p = fam.index_grid.axis_points(0)
    p_small = p[np.abs(p) <= 1.0]
    for pv in p_small[::2]:
        wave = fam.member((pv,))
        image = fd.apply(wave)
        ratio = image.samples[10] / wave.samples[10]
        assert abs(ratio - sym.at(pv)) <= 1e-6


def test_differential_symbol_empty_spec_is_zero():
    g = make_grid(1, [8], [1.0])
    sym = differential_symbol(DifferentialOperatorSpec({}), dual_grid(g))
    assert np.all(sym.sample(dual_grid(g)) == 0)


def test_differential_symbol_arity_mismatch():
    g = make_grid(2, [8, 8], [1.0, 1.0])
    with pytest.raises(ArityMismatch):
        differential_symbol(DifferentialOperatorSpec({(1,): 1.0}), dual_grid(g))


@pytest.mark.parametrize("datum", ["real", "complex"])
@pytest.mark.parametrize(
    "family_dim, terms",
    [
        (1, {(0, 0): 1.0, (2, 0): -1.0}),
        (2, {(0,): 1.0, (2,): -1.0}),
        (1, {(0, 0): 1.0, (0, 2): -1.0}),
    ],
    ids=["2d-(2,0)-on-1d", "1d-on-2d", "2d-(0,2)-on-1d"],
)
def test_solve_checks_the_symbol_arity_on_both_paths(family_dim, terms, datum):
    # the symbols are real and even, so a real datum would take the half path
    grids = {1: make_grid(1, [16], [4.0]), 2: make_grid(2, [8, 8], [3.0, 3.0])}
    fam = FourierFamily(grids[family_dim])
    spec = DifferentialOperatorSpec(terms)
    a = differential_symbol(spec, dual_grid(grids[spec.arity]))
    scale = 1.0 if datum == "real" else 1.0 + 0.5j
    d = sample_function(fam.space_grid, lambda *x: scale * np.exp(-sum(t * t for t in x)))
    with pytest.raises(ArityMismatch):
        solve(fam, a, d)


def test_spec_validation():
    with pytest.raises(ArityMismatch):
        DifferentialOperatorSpec({(1,): 1.0, (0, 2): 1.0})
    with pytest.raises(ArityMismatch):
        DifferentialOperatorSpec({(-1,): 1.0})
    spec = DifferentialOperatorSpec({1: 2.0, (3,): 1.0})  # bare int keys allowed
    assert spec.coeffs[(1,)] == 2.0
    assert spec.order() == 3


def test_divide_sine_by_derivative_symbol():
    g = make_grid(1, [64], [math.pi])
    fam = FourierFamily(g)
    d_v = coordinates(sample_function(g, np.sin), fam)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    q = divide(d_v, a, DivisionPolicy())
    p_axis = fam.index_grid.axis_points(0)
    plus = np.where(np.isclose(p_axis, 1.0))[0][0]
    minus = np.where(np.isclose(p_axis, -1.0))[0][0]
    # sin = (v_{-1} - v_{+1})/(2i), so q(+-1) = -1/2 scaled by the coefficient
    # density 1/dp (here dp = 1)
    assert q.samples[plus] == pytest.approx(-0.5, abs=1e-12)
    assert q.samples[minus] == pytest.approx(-0.5, abs=1e-12)
    rest = np.delete(np.abs(q.samples), [plus, minus])
    assert np.max(rest) <= 1e-12


def test_divide_constant_not_divisible_at_origin():
    g = make_grid(1, [64], [math.pi])
    fam = FourierFamily(g)
    d_v = coordinates(sample_function(g, lambda x: np.ones_like(x)), fam)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    with pytest.raises(NotDivisible) as info:
        divide(d_v, a, DivisionPolicy())
    assert info.value.worst_point == (0.0,)


def test_divide_by_unit_symbol_is_identity():
    g = make_grid(1, [32], [2.0])
    fam = FourierFamily(g)
    rng = np.random.default_rng(20)
    d_v = GridDistribution(
        fam.index_grid, rng.standard_normal(32) + 1j * rng.standard_normal(32)
    )
    q = divide(d_v, unit_symbol(1), DivisionPolicy())
    np.testing.assert_array_equal(q.samples, d_v.samples)


def test_division_policy_validation():
    with pytest.raises(ValueError):
        DivisionPolicy(zero_threshold=-1.0)
    with pytest.raises(ValueError):
        DivisionPolicy(zero_threshold=0.0)
    with pytest.raises(ValueError):
        DivisionPolicy(residual_threshold=-1e-3)
    DivisionPolicy(zero_threshold=math.inf)  # degenerate but legal


def test_solve_derivative_of_sine():
    g = make_grid(1, [64], [math.pi])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    d = sample_function(g, np.sin)
    result = solve(fam, a, d)
    exact = sample_function(g, lambda x: -np.cos(x))
    rel = sup_norm(result.solution - exact) / sup_norm(exact)
    assert rel <= 1e-10
    assert result.residual <= 1e-10


def test_solve_unit_symbol_returns_datum():
    g = make_grid(1, [64], [3.0])
    fam = FourierFamily(g)
    d = sample_function(g, lambda x: np.exp(-(x**2)))
    result = solve(fam, unit_symbol(1), d)
    assert sup_norm(result.solution - d) <= 1e-12 * sup_norm(d)


def test_solve_helmholtz_against_dense_fd():
    g = make_grid(1, [128], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    d = sample_function(g, lambda x: np.exp(-(x**2) / 4.5))  # sigma = 1.5
    result = solve(fam, a, d)
    assert result.residual <= 1e-10
    fd = finite_difference(
        DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0}), g, order=2
    )
    u_fd = np.linalg.solve(fd.matrix, d.samples)
    rel = np.linalg.norm(result.solution.samples - u_fd) / np.linalg.norm(u_fd)
    assert rel <= 1e-3  # measured 1.32e-4


def test_solve_pde_first_derivative():
    g = make_grid(1, [64], [math.pi])
    d = sample_function(g, np.sin)
    result = solve_pde(DifferentialOperatorSpec({(1,): 1.0}), d)
    exact = sample_function(g, lambda x: -np.cos(x))
    assert sup_norm(result.solution - exact) / sup_norm(exact) <= 1e-10


def test_solve_pde_helmholtz_single_mode():
    g = make_grid(1, [64], [math.pi])
    d = sample_function(g, np.cos)
    result = solve_pde(DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0}), d)
    # (1 + 1) u = cos  =>  u = cos / 2
    exact = sample_function(g, lambda x: np.cos(x) / 2.0)
    assert sup_norm(result.solution - exact) / sup_norm(exact) <= 1e-12


def test_solve_pde_constant_datum_fails():
    g = make_grid(1, [64], [math.pi])
    d = sample_function(g, lambda x: np.ones_like(x))
    with pytest.raises(NotDivisible) as info:
        solve_pde(DifferentialOperatorSpec({(1,): 1.0}), d)
    assert info.value.worst_point == (0.0,)


def test_eigen_representation_identity():
    g = make_grid(1, [128], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    d = sample_function(g, lambda x: np.exp(-(x**2) / 4.5))
    result = solve(fam, a, d)
    a_vals = a.sample(fam.index_grid)
    d_v = coordinates(d, fam)
    u_v = coordinates(result.solution, fam)
    eps = DivisionPolicy().resolve_zero_threshold(a_vals)
    live = np.abs(a_vals) > eps
    gap = np.max(np.abs(a_vals[live] * u_v.samples[live] - d_v.samples[live]))
    assert gap <= 1e-12 * np.max(np.abs(d_v.samples))


def test_roundtrip_residual_on_band_limited_data():
    g = make_grid(1, [128], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: 2.0 + np.cos(p) + p**2, "offset")
    rng = np.random.default_rng(21)
    d = band_limited(rng, fam, 30)
    result = solve(fam, a, d)
    image = spectral_apply(a, fam, result.solution)
    rel = np.linalg.norm(image.samples - d.samples) / np.linalg.norm(d.samples)
    assert rel <= 1e-10


def test_gauge_freedom_on_zero_set():
    # adding coefficient mass where |a| <= eps moves the residual by at most
    # eps times the added mass (ell-1, weighted by dp)
    g = make_grid(1, [64], [math.pi])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    d = sample_function(g, np.sin)
    policy = DivisionPolicy()
    q = divide(coordinates(d, fam), a, policy)
    a_vals = a.sample(fam.index_grid)
    eps = policy.resolve_zero_threshold(a_vals)
    bump = np.where(np.abs(a_vals) <= eps, 25.0 + 0.0j, 0.0)
    q2 = GridDistribution(fam.index_grid, q.samples + bump)
    r1 = sup_norm(spectral_apply(a, fam, superpose(q, fam)) - d)
    r2 = sup_norm(spectral_apply(a, fam, superpose(q2, fam)) - d)
    mass = float(np.sum(np.abs(bump)) * fam.index_grid.cell_volume)
    assert r2 - r1 <= eps * mass + 1e-12


def test_solve_pde_2d_helmholtz():
    g = make_grid(2, [32, 32], [6.0, 6.0])
    spec = DifferentialOperatorSpec({(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    d = sample_function(g, lambda x, y: np.exp(-(x**2 + y**2) / 3.0))
    result = solve_pde(spec, d)
    assert result.residual <= 1e-10
    for order, tol in ((2, 5e-3), (4, 5e-4)):  # measured 2.7e-3 / 8.4e-5
        fd = finite_difference(spec, g, order=order)
        u_fd = np.linalg.solve(fd.matrix, d.samples)
        rel = np.linalg.norm(result.solution.samples - u_fd) / np.linalg.norm(u_fd)
        assert rel <= tol


def test_differential_operator_applies_spectrally():
    g = make_grid(1, [128], [8.0])
    u = sample_function(g, lambda x: np.exp(-(x**2)))
    op = DifferentialOperator(DifferentialOperatorSpec({(1,): 1.0}))
    out = op.apply(u)
    exact = sample_function(g, lambda x: -2 * x * np.exp(-(x**2)))
    assert sup_norm(out - exact) / sup_norm(exact) <= 1e-10
    with pytest.raises(ArityMismatch):
        op.apply(sample_function(make_grid(2, [8, 8], [1, 1]), lambda x, y: x * y))
