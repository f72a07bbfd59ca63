import math

import numpy as np
import pytest

from schwartzcalc import (
    ArityMismatch,
    CoordinateOperator,
    DenseOperator,
    DiagonalOperator,
    DiracFamily,
    FourierFamily,
    GridDistribution,
    GridMismatch,
    IdentityOperator,
    IndexOffGrid,
    KernelFamily,
    MultiplicationOperator,
    NonFiniteSamples,
    NotABasis,
    SymbolFunction,
    coordinates,
    eigenspectrum_measure,
    integrate_measure,
    is_eigenfamily,
    make_grid,
    member,
    operator_spectral_measure,
    pairing,
    sample_function,
    scale_measure,
    spectral_apply,
    spectral_distribution,
    spectral_product,
    spectrum_identity,
    spectrum_one,
    superpose,
    sup_norm,
    unit_symbol,
    zero_distribution,
)
from schwartzcalc.grid import _polynomial_symbol
from schwartzcalc.solver import DifferentialOperatorSpec
from schwartzcalc.oracle import finite_difference
from schwartzcalc.spectral import ComposedOperator, SpectrumFunction, SumOperator, SuperposeOperator

from schwartzcalc.verify import _band_limited as band_limited


@pytest.fixture
def fourier_256():
    g = make_grid(1, [256], [8.0])
    return FourierFamily(g)


def test_is_eigenfamily_fd_matrix_on_band(fourier_256):
    fam = fourier_256
    fd = finite_difference(
        DifferentialOperatorSpec({(1,): 1.0}), fam.space_grid, order=2
    )
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    p_axis = fam.index_grid.axis_points(0)
    band = [(p,) for p in p_axis[np.abs(p_axis) <= 0.5]]
    report = is_eigenfamily(fd, fam, a, tol=1e-4, indices=band)
    assert report.passed
    assert report.max_residual <= 1e-4  # measured 3.94e-5


def test_is_eigenfamily_identity_exact(fourier_256):
    fam = fourier_256
    p_axis = fam.index_grid.axis_points(0)
    report = is_eigenfamily(
        IdentityOperator(), fam, unit_symbol(1), tol=1e-12,
        indices=[(p,) for p in p_axis[::32]],
    )
    assert report.passed and report.max_residual == 0.0


def test_is_eigenfamily_refuses_an_empty_sweep(fourier_256):
    with pytest.raises(IndexOffGrid, match="at least one index point"):
        is_eigenfamily(IdentityOperator(), fourier_256, unit_symbol(1), tol=1e-12, indices=[])


def test_is_eigenfamily_rejects_multiplication_on_fourier(fourier_256):
    fam = fourier_256
    mul = MultiplicationOperator(SymbolFunction(1, lambda x: x**2, "x^2"))
    p_axis = fam.index_grid.axis_points(0)
    report = is_eigenfamily(
        mul, fam, SymbolFunction(1, lambda p: p**2, "p^2"), tol=1e-4,
        indices=[(p,) for p in p_axis[::64]],
    )
    assert not report.passed
    assert report.max_residual > 1.0


def test_spectral_apply_unit_symbol_is_identity(fourier_256):
    fam = fourier_256
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)))
    out = spectral_apply(unit_symbol(1), fam, u)
    err = np.max(np.abs(out.samples - u.samples)) / np.max(np.abs(u.samples))
    assert err <= 1e-10


def test_spectral_apply_single_mode_scaling():
    # grid with unit frequency spacing so p = 2 is an index node
    g = make_grid(1, [16], [math.pi])
    fam = FourierFamily(g)
    u = member(fam, 2.0)
    out = spectral_apply(SymbolFunction(1, lambda p: p**2, "p^2"), fam, u)
    np.testing.assert_allclose(out.samples, 4.0 * u.samples, atol=1e-12)


def test_spectral_apply_dirac_is_pointwise_product():
    g = make_grid(1, [64], [4.0])
    fam = DiracFamily(g)
    f = SymbolFunction(1, lambda x: np.cos(x) + 2.0, "cos+2")
    rng = np.random.default_rng(10)
    u = GridDistribution(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    out = spectral_apply(f, fam, u)
    np.testing.assert_array_equal(out.samples, f.sample(g) * u.samples)


def test_operator_linearity_probes(fourier_256):
    fam = fourier_256
    a = SymbolFunction(1, lambda p: np.cos(p) - 1j * p, "cos p - ip")
    A = DiagonalOperator(fam, a)
    rng = np.random.default_rng(11)
    g = fam.space_grid
    for _ in range(4):
        u = GridDistribution(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
        w = GridDistribution(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
        alpha, beta = complex(rng.standard_normal(), rng.standard_normal()), complex(
            rng.standard_normal(), rng.standard_normal()
        )
        lhs = A.apply(alpha * u + beta * w)
        rhs = alpha * A.apply(u) + beta * A.apply(w)
        norm = np.linalg.norm(u.samples) + np.linalg.norm(w.samples)
        assert np.linalg.norm(lhs.samples - rhs.samples) <= 1e-10 * norm


def test_dirac_spectral_distribution_is_multiplication():
    g = make_grid(1, [128], [8.0])
    fam = DiracFamily(g)
    f = SymbolFunction(1, lambda x: 1 + x**2, "1+x^2")
    mu = spectral_distribution(fam)
    rng = np.random.default_rng(12)
    u = GridDistribution(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    lhs = mu.evaluate(f).apply(u)
    rhs = f.sample(g) * u.samples
    gap = np.max(np.abs(lhs.samples - rhs)) / np.max(np.abs(rhs))
    assert gap <= 1e-14


def test_spectral_distribution_unit_is_identity(fourier_256):
    fam = fourier_256
    mu = spectral_distribution(fam)
    rng = np.random.default_rng(13)
    u = band_limited(rng, fam, 40)
    out = integrate_measure(mu).apply(u)
    assert np.max(np.abs(out.samples - u.samples)) <= 1e-12 * np.max(np.abs(u.samples))


def test_spectral_distribution_members_are_eigenvectors(fourier_256):
    fam = fourier_256
    f = SymbolFunction(1, lambda p: np.exp(-np.abs(p)) + p**2, "mix")
    op = spectral_distribution(fam).evaluate(f)
    for p in fam.index_grid.axis_points(0)[::64]:
        vp = member(fam, p)
        out = op.apply(vp)
        np.testing.assert_allclose(out.samples, f.at(p) * vp.samples, atol=1e-10)


def test_spectral_distribution_needs_basis():
    g = make_grid(1, [16], [2.0])
    plain = KernelFamily(g, g, np.eye(16))
    with pytest.raises(NotABasis):
        spectral_distribution(plain)
    flagged = KernelFamily(g, g, np.eye(16) / g.cell_volume, is_basis=True)
    spectral_distribution(flagged)  # no raise


def test_algebra_homomorphism_random_probes():
    g = make_grid(1, [128], [math.pi])
    fam = FourierFamily(g)
    mu = spectral_distribution(fam)
    rng = np.random.default_rng(14)
    f = SymbolFunction(1, lambda p: p**2, "p^2")
    h = SymbolFunction(1, lambda p: np.cos(p), "cos")
    for _ in range(4):
        u = band_limited(rng, fam, 30)
        lhs = mu.evaluate(f * h).apply(u)
        rhs = mu.evaluate(f).apply(mu.evaluate(h).apply(u))
        assert (
            np.linalg.norm(lhs.samples - rhs.samples)
            <= 1e-10 * np.linalg.norm(u.samples)
        )


def test_injectivity_surrogate_recovers_symbol_difference():
    g = make_grid(1, [128], [math.pi])
    fam = FourierFamily(g)
    mu = spectral_distribution(fam)
    f = SymbolFunction(1, lambda p: p**2, "p^2")
    diff = SymbolFunction(1, lambda p: 1e-3 * np.sin(p), "gap")
    op_f = mu.evaluate(f)
    op_g = mu.evaluate(f + diff)
    worst = 0.0
    for p in fam.index_grid.axis_points(0)[::8]:
        vp = member(fam, p)
        gap = op_g.apply(vp) - op_f.apply(vp)
        k = int(np.argmax(np.abs(vp.samples)))
        recovered = gap.samples[k] / vp.samples[k]
        worst = max(worst, abs(recovered - diff.at(p)))
    assert worst <= 1e-10
    # and with identical symbols the recovered gap is ~0
    op_same = mu.evaluate(f)
    vp = member(fam, 1.0)
    assert np.max(np.abs(op_same.apply(vp).samples - op_f.apply(vp).samples)) <= 1e-12


def test_spectral_product_with_coordinate_operator(fourier_256):
    fam = fourier_256
    B = CoordinateOperator(fam)
    measure = spectral_product(B, fam)
    f = SymbolFunction(1, lambda p: np.cos(p), "cos")
    rng = np.random.default_rng(15)
    u = band_limited(rng, fam, 40)
    lhs = measure.evaluate(f).apply(u)
    rhs = spectral_apply(f, fam, u)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12 * np.max(np.abs(rhs.samples))


def test_spectral_product_zero_cases(fourier_256):
    fam = fourier_256
    B = CoordinateOperator(fam)
    measure = spectral_product(B, fam)
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)))
    zero_f = SymbolFunction(1, lambda p: np.zeros_like(p), "0")
    assert np.all(measure.evaluate(zero_f).apply(u).samples == 0)
    zero_B = 0.0 * CoordinateOperator(fam)
    zm = spectral_product(zero_B, fam)
    f = SymbolFunction(1, lambda p: np.cos(p), "cos")
    assert np.all(zm.evaluate(f).apply(u).samples == 0)


def test_spectral_product_grid_mismatch(fourier_256):
    fam = fourier_256
    measure = spectral_product(IdentityOperator(), fam)  # lands on the space grid
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)))
    with pytest.raises(GridMismatch):
        measure.evaluate(unit_symbol(1)).apply(u)


def test_spectral_product_integral_with_the_coordinate_operator_is_the_identity(fourier_256):
    fam = fourier_256
    u = band_limited(np.random.default_rng(18), fam, 40)
    got = integrate_measure(spectral_product(CoordinateOperator(fam), fam)).apply(u)
    assert np.max(np.abs(got.samples - u.samples)) <= 1e-12 * np.max(np.abs(u.samples))


def test_scale_measure_rules(fourier_256):
    fam = fourier_256
    mu = spectral_distribution(fam)
    f = SymbolFunction(1, lambda p: np.cos(p), "cos")
    h = SymbolFunction(1, lambda p: 1.0 / (1.0 + p**2), "lorentz")
    rng = np.random.default_rng(16)
    u = band_limited(rng, fam, 40)
    # unit scaling changes nothing
    same = scale_measure(unit_symbol(1), mu).evaluate(f).apply(u)
    base = mu.evaluate(f).apply(u)
    assert np.max(np.abs(same.samples - base.samples)) == 0.0
    # integrate(g . mu) == mu(g)
    lhs = integrate_measure(scale_measure(f, mu)).apply(u)
    assert np.max(np.abs(lhs.samples - base.samples)) == 0.0
    # nested scaling composes multiplicatively
    d1 = scale_measure(f, scale_measure(h, mu)).evaluate(unit_symbol(1)).apply(u)
    d2 = scale_measure(f * h, mu).evaluate(unit_symbol(1)).apply(u)
    assert np.max(np.abs(d1.samples - d2.samples)) <= 1e-12 * np.max(np.abs(d2.samples))


def test_scale_measure_arity_mismatch(fourier_256):
    mu = spectral_distribution(fourier_256)
    with pytest.raises(ArityMismatch):
        scale_measure(SymbolFunction(2, lambda p, q: p + q), mu)
    with pytest.raises(ArityMismatch):
        scale_measure(spectrum_one(), mu)


def test_scale_measure_of_a_spectrum_measure_refuses_a_symbol(fourier_256):
    a = SymbolFunction(1, lambda p: p**2, "p^2")
    mu = operator_spectral_measure(a, fourier_256)
    with pytest.raises(ArityMismatch, match="spectrum functions"):
        scale_measure(unit_symbol(1), mu)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: DenseOperator(g, np.eye(g.size - 1)),
        lambda g: DenseOperator(make_grid(1, [8], [2.0]), np.eye(8)).apply(zero_distribution(g)),
    ],
    ids=["shape", "foreign-grid"],
)
def test_dense_operator_refuses_a_matrix_or_a_distribution_off_its_grid(build):
    with pytest.raises(GridMismatch):
        build(make_grid(1, [8], [1.0]))


def test_measure_evaluate_linearity(fourier_256):
    fam = fourier_256
    mu = spectral_distribution(fam)
    f = SymbolFunction(1, lambda p: np.cos(p), "cos")
    h = SymbolFunction(1, lambda p: p**2, "p^2")
    rng = np.random.default_rng(17)
    u = band_limited(rng, fam, 40)
    lhs = mu.evaluate(f + h).apply(u)
    rhs = mu.evaluate(f).apply(u) + mu.evaluate(h).apply(u)
    assert (
        np.linalg.norm(lhs.samples - rhs.samples)
        <= 1e-10 * np.linalg.norm(rhs.samples)
    )


def test_eigenspectrum_measure_values(fourier_256):
    fam = fourier_256
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)) * np.cos(2 * x))
    mu = eigenspectrum_measure(u, fam, a)
    c = coordinates(u, fam)
    # identity embedding gives a * [u|v]
    lhs = mu.evaluate(spectrum_identity())
    rhs = a.sample(fam.index_grid) * c.samples
    np.testing.assert_allclose(lhs.samples, rhs, atol=1e-13)
    # unit constant gives [u|v]
    np.testing.assert_allclose(mu.evaluate(spectrum_one()).samples, c.samples, atol=1e-14)
    # zero distribution gives the zero measure
    zmu = eigenspectrum_measure(zero_distribution(fam.space_grid), fam, a)
    assert np.all(zmu.evaluate(spectrum_identity()).samples == 0)


def test_expansion_by_spectrum_integration(fourier_256):
    fam = fourier_256
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    A = DiagonalOperator(fam, a)
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)) * (1 + np.sin(x)))
    lhs = coordinates(A.apply(u), fam)
    rhs = eigenspectrum_measure(u, fam, a).evaluate(spectrum_identity())
    gap = np.max(np.abs(lhs.samples - rhs.samples)) / np.max(np.abs(rhs.samples))
    assert gap <= 1e-12


def test_operator_spectral_measure(fourier_256):
    fam = fourier_256
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    mu = operator_spectral_measure(a, fam)
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)))
    # identity embedding recovers the diagonal operator
    lhs = mu.evaluate(spectrum_identity()).apply(u)
    rhs = spectral_apply(a, fam, u)
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12 * np.max(np.abs(rhs.samples))
    # unit constant integrates to the identity
    out = integrate_measure(mu).apply(u)
    assert np.max(np.abs(out.samples - u.samples)) <= 1e-10 * np.max(np.abs(u.samples))
    # constant eigenvalue system: identity embedding gives c * id
    cmu = operator_spectral_measure(
        SymbolFunction(1, lambda p: np.full(np.shape(p), 3.0 - 1.0j), "c"), fam
    )
    out_c = cmu.evaluate(spectrum_identity()).apply(u)
    np.testing.assert_allclose(out_c.samples, (3.0 - 1.0j) * u.samples, atol=1e-12)


def test_spectrum_function_requires_right_kind(fourier_256):
    fam = fourier_256
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    mu = operator_spectral_measure(a, fam)
    with pytest.raises(ArityMismatch):
        mu.evaluate(unit_symbol(1))
    u = sample_function(fam.space_grid, lambda x: np.exp(-(x**2)))
    emu = eigenspectrum_measure(u, fam, a)
    with pytest.raises(ArityMismatch):
        emu.evaluate(unit_symbol(1))
    # spectrum functions scale eigenspectrum measures
    scaled = scale_measure(SpectrumFunction(lambda s: s**2, "s^2"), emu)
    lhs = scaled.evaluate(spectrum_one())
    rhs = emu.evaluate(SpectrumFunction(lambda s: s**2, "s^2"))
    np.testing.assert_allclose(lhs.samples, rhs.samples, atol=1e-14)


def test_diagonal_operator_arity_check(fourier_256):
    with pytest.raises(ArityMismatch):
        DiagonalOperator(fourier_256, SymbolFunction(2, lambda p, q: p + q))


# ---------------------------------------------------------------------------
# the operator algebra and spectrum functions, against their definitions


def _bits(x):
    return np.ascontiguousarray(x.samples if isinstance(x, GridDistribution) else x).view(np.uint64)


def _operators():
    g = make_grid(1, [32], [4.0])
    fam = FourierFamily(g)
    A = DiagonalOperator(fam, SymbolFunction(1, lambda p: 1.0 + p**2 - 0.5j * p, "1+p^2-ip/2"))
    B = MultiplicationOperator(SymbolFunction(1, lambda x: np.exp(-(x**2)), "exp(-x^2)"))
    u = sample_function(g, lambda x: np.sin(x) + 0.5j * np.cos(2.0 * x))
    return fam, A, B, u


def test_calling_composing_and_adding_operators_is_their_definition():
    fam, A, B, u = _operators()
    assert np.array_equal(_bits(A(u)), _bits(A.apply(u)))
    composed, summed = A @ B, A + B
    assert isinstance(composed, ComposedOperator) and isinstance(summed, SumOperator)
    assert np.array_equal(_bits(composed(u)), _bits(A(B(u))))
    assert np.array_equal(_bits(summed(u)), _bits(A(u) + B(u)))
    assert np.array_equal(_bits((B @ A + A)(u)), _bits(B(A(u)) + A(u)))


def test_superpose_operator_is_superpose_and_undoes_the_coordinate_operator():
    fam, A, B, u = _operators()
    c = coordinates(u, fam)
    synthesis = SuperposeOperator(fam)
    assert np.array_equal(_bits(synthesis(c)), _bits(superpose(c, fam)))
    round_trip = (synthesis @ CoordinateOperator(fam))(u)
    assert np.max(np.abs(round_trip.samples - u.samples)) <= 1e-14 * np.max(np.abs(u.samples))
    with pytest.raises(GridMismatch):
        synthesis(u)  # u lives on the space grid, not the index grid


def test_spectrum_function_sum_and_scalar_product_are_pointwise():
    f, g = spectrum_identity(), SpectrumFunction(lambda s: s**2, "s^2")
    s = np.array([0.5, -2.0 + 1.0j, 3.0j, 0.0])
    total = f + g
    assert total.descriptor == "(id + s^2)"
    assert np.array_equal(total.evaluator(s), s + s**2)
    for scaled, text in ((g * 2.5, "(s^2 * 2.5)"), (2.5 * g, "(s^2 * 2.5)")):
        assert scaled.descriptor == text
        assert np.array_equal(scaled.evaluator(s), s**2 * 2.5)
    with pytest.raises(TypeError):
        f + 1.0
    # composed with a symbol, the sum is the sum of the compositions
    grid = make_grid(1, [16], [2.0])
    a = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    values = a.sample(grid)
    assert np.array_equal(total.compose(a).sample(grid), values + values**2)


def test_is_eigenfamily_sweeps_every_index_node_by_default():
    fam, A, B, u = _operators()
    a = A.symbol
    nodes = [fam.index_grid.point_at(k) for k in range(fam.index_grid.size)]
    assert is_eigenfamily(A, fam, a, 1e-10) == is_eigenfamily(A, fam, a, 1e-10, indices=nodes)
    # multiplication is not diagonal in the Fourier family: the worst node is
    # the largest of the residuals written out node by node
    residuals = []
    for p in nodes:
        vp = member(fam, p)
        residuals.append(sup_norm(B.apply(vp) - a.at(p) * vp) / max(1.0, sup_norm(vp)))
    report = is_eigenfamily(B, fam, a, 1e-10)
    worst = int(np.argmax(residuals))
    assert report.max_residual == residuals[worst] and not report.passed
    assert report.worst_index == tuple(float(x) for x in nodes[worst])


def _overflow_sites():
    """Each library product whose finite factors overflow, as a thunk."""
    g = make_grid(1, [8], [1.0])
    big = sample_function(g, lambda x: 1e308 + 0.0 * x)
    large = sample_function(g, lambda x: 1e200 + 0.0 * x)  # its transforms stay finite
    huge = SymbolFunction(1, lambda x: 1e300 + 0.0 * x, "1e300")
    huge_even = _polynomial_symbol(1, [((0,), 1e300)], "1e300")  # real and even: the half pair
    dirac, fourier = DiracFamily(g), FourierFamily(g)
    return {
        "dense-operator": lambda: DenseOperator(g, np.full((8, 8), 1e300)).apply(big),
        "pairing": lambda: pairing(big, big),
        "fourier-half-pair": lambda: spectral_apply(huge_even, fourier, large),
        "fourier-complex-pair": lambda: DiagonalOperator(fourier, huge).apply(large),
        "dirac-pair": lambda: DiagonalOperator(dirac, huge).apply(large),
        "add": lambda: big + big,
        "subtract": lambda: big - (-big),
        "multiply": lambda: big * big,
        "scalar-times": lambda: big * 10.0,
        "times-scalar": lambda: 10.0 * big,
        "multiplication-operator": lambda: MultiplicationOperator(huge).apply(big),
        "spectral-product": lambda: spectral_product(CoordinateOperator(dirac), dirac).evaluate(huge).apply(big),
        "eigenspectrum-measure": lambda: eigenspectrum_measure(big, dirac, huge).evaluate(spectrum_identity()),
        "scaled-identity": lambda: (1e300 * IdentityOperator()).apply(big),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("site", sorted(_overflow_sites()))
def test_arithmetic_that_overflows_is_a_typed_error(site):
    with pytest.raises(NonFiniteSamples):
        _overflow_sites()[site]()


@pytest.mark.parametrize(
    "operation",
    [
        lambda: unit_symbol(1) + "x",
        lambda: "x" * unit_symbol(1),
        lambda: spectrum_identity() * "x",
        lambda: "x" * spectrum_identity(),
        lambda: "2" * IdentityOperator(),
        lambda: IdentityOperator() * "2",
    ],
    ids=["symbol-plus", "times-symbol", "spectrum-times", "times-spectrum", "times-operator", "operator-times"],
)
def test_operands_that_are_not_numbers_are_a_type_error(operation):
    with pytest.raises(TypeError):
        operation()


@pytest.mark.parametrize("scalar", [2, np.float64(2), 1j], ids=["int", "float64", "complex"])
def test_number_operands_keep_their_bits(scalar):
    g = make_grid(1, [16], [2.0])
    u = sample_function(g, lambda x: np.exp(-x**2) + 1j * x)
    symbol = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    s = symbol.sample(g)
    np.testing.assert_array_equal((symbol * scalar).sample(g), np.multiply(s, scalar))
    np.testing.assert_array_equal((scalar + symbol).sample(g), np.add(s, scalar))
    values = np.linspace(-1.0, 1.0, 5) + 0.5j
    np.testing.assert_array_equal((scalar * spectrum_identity()).evaluator(values), values * scalar)
    np.testing.assert_array_equal((scalar * IdentityOperator())(u).samples, complex(scalar) * u.samples)
