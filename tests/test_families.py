import math
import sys
import threading
import time

import numpy as np
import pytest

from schwartzcalc import (
    ArityMismatch,
    DenseOperator,
    DiagonalOperator,
    DiracFamily,
    FourierFamily,
    GridDistribution,
    GridMismatch,
    IllConditioned,
    IndexOffGrid,
    KernelFamily,
    LazyFamily,
    MultiplicationOperator,
    NonFiniteSamples,
    NotABasis,
    SymbolFunction,
    constant_symbol,
    coordinates,
    delta_distribution,
    family_product,
    make_grid,
    member,
    pairing,
    sample_function,
    scale_family,
    superpose,
    unit_symbol,
    zero_distribution,
)
from schwartzcalc.solver import DifferentialOperatorSpec
from schwartzcalc.oracle import finite_difference

from naive import naive_fourier_coordinates, naive_superpose
from schwartzcalc.verify import _band_limited as band_limited


def test_dirac_member_normalization():
    g = make_grid(1, [8], [math.pi])
    d = DiracFamily(g)
    m = member(d, 0.0)
    node = g.index_of((0.0,))
    assert m.samples[node] == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert np.all(m.samples[np.arange(8) != node] == 0.0)
    # pairing oracle: <delta_p, u> == u(p)
    u = lambda x: np.cos(x) + 0.5 * x
    for p in g.axis_points(0)[1:4]:
        assert pairing(member(d, p), u) == pytest.approx(u(np.array(p)), abs=1e-14)


def test_member_rejects_off_grid_points():
    g = make_grid(1, [8], [math.pi])
    for fam in (DiracFamily(g), FourierFamily(g)):
        with pytest.raises(IndexOffGrid):
            member(fam, 0.1)


def test_fourier_member_is_plane_wave():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    p = fam.index_grid.axis_points(0)[11]
    m = member(fam, p)
    np.testing.assert_allclose(m.samples, np.exp(-1j * p * g.axis_points(0)), atol=1e-14)


def test_kernel_member_zero_family():
    g = make_grid(1, [8], [1.0])
    fam = KernelFamily(g, g, np.zeros((8, 8)))
    np.testing.assert_array_equal(member(fam, g.point_at(3)).samples, np.zeros(8))


def test_dirac_coordinates_and_superpose_are_identity():
    g = make_grid(1, [32], [3.0])
    d = DiracFamily(g)
    rng = np.random.default_rng(1)
    u = GridDistribution(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    np.testing.assert_array_equal(coordinates(u, d).samples, u.samples)
    np.testing.assert_array_equal(superpose(u, d).samples, u.samples)
    # identity collapse agrees with the literal weighted sum
    lit = naive_superpose(u, d)
    np.testing.assert_allclose(superpose(u, d).samples, lit.samples, atol=1e-12)


@pytest.mark.parametrize(
    "counts, extents, seed",
    [
        ([16], [2.0], 2),
        ([8, 6], [1.0, 1.5], 3),
        # N/2 odd on some axis: the FFT gives other bits than the first transforms
        ([6], [2.0], 4),
        ([10], [3.0], 4),
        ([6, 10], [2.0, 3.5], 4),
        ([4, 6, 10], [1.0, 2.0, 3.0], 4),
    ],
    ids=["1d-16", "2d-8x6", "1d-6", "1d-10", "2d-6x10", "3d-4x6x10"],
)
def test_fourier_paths_match_literal_sums(counts, extents, seed):
    g = make_grid(len(counts), counts, extents)
    fam = FourierFamily(g)
    rng = np.random.default_rng(seed)
    u = GridDistribution(
        g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    )
    c = coordinates(u, fam)
    np.testing.assert_allclose(
        c.samples, naive_fourier_coordinates(u, fam).samples, atol=1e-12
    )
    np.testing.assert_allclose(
        superpose(c, fam).samples, naive_superpose(c, fam).samples, atol=1e-12
    )


def test_fourier_member_coordinates_are_point_mass():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    k = 11
    p = fam.index_grid.point_at(k)
    c = coordinates(member(fam, p), fam)
    expected_mass = 1.0 / fam.index_grid.cell_volume
    assert c.samples[k] == pytest.approx(expected_mass, rel=1e-12)
    rest = np.delete(np.abs(c.samples), k)
    assert np.max(rest) <= 1e-12 * expected_mass


def test_superpose_point_mass_gives_member():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    k = 5
    c = np.zeros(16, dtype=complex)
    c[k] = 1.0 / fam.index_grid.cell_volume
    rebuilt = superpose(GridDistribution(fam.index_grid, c), fam)
    target = member(fam, fam.index_grid.point_at(k))
    np.testing.assert_allclose(rebuilt.samples, target.samples, atol=1e-13)


def test_zero_coordinates_and_superpose():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    z_space = zero_distribution(g)
    z_index = zero_distribution(fam.index_grid)
    assert np.all(coordinates(z_space, fam).samples == 0)
    assert np.all(superpose(z_index, fam).samples == 0)


@pytest.mark.parametrize("variant", ["fourier", "dirac", "kernel"])
def test_reconstruction_identity(variant):
    g = make_grid(1, [64], [4.0])
    four = FourierFamily(g)
    if variant == "fourier":
        fam = four
    elif variant == "dirac":
        fam = DiracFamily(g)
    else:
        fam = KernelFamily(four.index_grid, g, four.matrix(), is_basis=True)
    rng = np.random.default_rng(4)
    u = band_limited(rng, four, 20)
    back = superpose(coordinates(u, fam), fam)
    err = np.max(np.abs(back.samples - u.samples)) / np.max(np.abs(u.samples))
    assert err <= 1e-8


@pytest.mark.parametrize("variant", ["fourier", "dirac"])
def test_coefficient_roundtrip(variant):
    g = make_grid(1, [64], [4.0])
    fam = FourierFamily(g) if variant == "fourier" else DiracFamily(g)
    rng = np.random.default_rng(5)
    c = GridDistribution(
        fam.index_grid,
        rng.standard_normal(fam.index_grid.size)
        + 1j * rng.standard_normal(fam.index_grid.size),
    )
    back = coordinates(superpose(c, fam), fam)
    err = np.max(np.abs(back.samples - c.samples)) / np.max(np.abs(c.samples))
    assert err <= 1e-10


def test_linearity_of_transforms():
    g = make_grid(1, [48], [3.0])
    fam = FourierFamily(g)
    rng = np.random.default_rng(6)
    u = GridDistribution(g, rng.standard_normal(48) + 1j * rng.standard_normal(48))
    v = GridDistribution(g, rng.standard_normal(48) + 1j * rng.standard_normal(48))
    a, b = 1.3 - 0.7j, -0.2 + 2.1j
    lhs = coordinates(a * u + b * v, fam)
    rhs = a * coordinates(u, fam) + b * coordinates(v, fam)
    scale = np.max(np.abs(rhs.samples))
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12 * scale
    cu, cv = coordinates(u, fam), coordinates(v, fam)
    lhs_s = superpose(a * cu + b * cv, fam)
    rhs_s = a * superpose(cu, fam) + b * superpose(cv, fam)
    scale_s = np.max(np.abs(rhs_s.samples))
    assert np.max(np.abs(lhs_s.samples - rhs_s.samples)) <= 1e-12 * scale_s


def test_grid_mismatch_errors():
    g = make_grid(1, [16], [2.0])
    other = make_grid(1, [16], [3.0])
    fam = FourierFamily(g)
    u = zero_distribution(other)
    with pytest.raises(GridMismatch):
        coordinates(u, fam)
    with pytest.raises(GridMismatch):
        superpose(u, fam)


def test_scale_family_unit_symbol_keeps_members():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    scaled = scale_family(unit_symbol(1), fam)
    p = fam.index_grid.point_at(9)
    np.testing.assert_allclose(
        member(scaled, p).samples, member(fam, p).samples, atol=1e-14
    )


def test_scale_family_on_dirac_scales_deltas():
    g = make_grid(1, [16], [2.0])
    fam = DiracFamily(g)
    a = SymbolFunction(1, lambda x: 1 + x**2, "1+x^2")
    scaled = scale_family(a, fam)
    p = g.point_at(4)
    target = a.at(p) * delta_distribution(g, p).samples
    np.testing.assert_allclose(member(scaled, p).samples, target, atol=1e-13)


def test_scale_family_derivative_symbol_matches_fd_oracle():
    # members of scale_family(-ip, Fourier) are the derivatives of the waves;
    # checked against an order-4 periodic difference matrix on the resolved band
    g = make_grid(1, [256], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    scaled = scale_family(a, fam)
    fd4 = finite_difference(DifferentialOperatorSpec({(1,): 1.0}), g, order=4)
    p_axis = fam.index_grid.axis_points(0)
    worst = 0.0
    for p in p_axis[np.abs(p_axis) <= 1.0]:
        numeric = fd4.apply(member(fam, p))
        exact = member(scaled, p)
        worst = max(worst, np.max(np.abs(numeric.samples - exact.samples)))
    assert worst <= 1e-6  # measured 1.52e-7


def test_scale_family_arity_mismatch():
    g = make_grid(1, [16], [2.0])
    with pytest.raises(ArityMismatch):
        scale_family(SymbolFunction(2, lambda p, q: p * q), FourierFamily(g))


def test_a_scaled_member_past_the_largest_double_is_refused_as_non_finite():
    # |a(p)| / dp^2 = 1e307 / (pi/20)^2 passes the largest double: the member
    # and the table that the coordinates solve needs are refused, with no warning
    g = make_grid(2, [16, 16], [20.0, 20.0])
    fam = FourierFamily(g)
    scaled = scale_family(constant_symbol(2, 1e307), fam)
    u = sample_function(g, lambda x, y: np.exp(-(x**2 + y**2)))
    with pytest.raises(NonFiniteSamples, match="samples must all be finite"):
        member(scaled, fam.index_grid.point_at(3))
    with pytest.raises(NonFiniteSamples, match="kernel entries must all be finite"):
        coordinates(u, scaled)


def test_caller_tables_that_are_not_finite_are_refused_as_non_finite():
    g = make_grid(1, [8], [2.0])
    bad = np.eye(8, dtype=np.complex128)
    bad[2, 5] = complex(0.0, np.inf)
    with pytest.raises(NonFiniteSamples, match="^kernel entries must all be finite$"):
        KernelFamily(g, g, bad)
    with pytest.raises(NonFiniteSamples, match="^dense operator matrix entries must all be finite$"):
        DenseOperator(g, bad)
    with pytest.raises(GridMismatch, match=r"^kernel shape \(8, 7\) does not match \(8, 8\)$"):
        KernelFamily(g, g, bad[:, :7])


def test_family_product_left_inverse_gives_dirac_pairing():
    from schwartzcalc import left_inverse_family

    g = make_grid(1, [64], [4.0])
    fam = FourierFamily(g)
    mu = left_inverse_family(fam)
    prod = family_product(mu, fam)
    phi = lambda x: np.exp(-((x - 0.5) ** 2))
    for p in g.axis_points(0)[::16]:
        val = pairing(member(prod, p), phi)
        assert abs(val - phi(np.array(p))) <= 1e-8


def test_family_product_zero_family():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    zero = KernelFamily(g, fam.index_grid, np.zeros((16, 16)))
    prod = family_product(zero, fam)
    assert np.all(prod.kernel == 0)


def test_family_product_dirac_coordinates_with_dirac():
    g = make_grid(1, [16], [2.0])
    dirac = DiracFamily(g)
    # the coordinate family of deltas in the Dirac family is the Dirac family
    coords_rows = np.stack(
        [coordinates(delta_distribution(g, g.point_at(k)), dirac).samples for k in range(16)]
    )
    mu = KernelFamily(g, g, coords_rows)
    prod = family_product(mu, dirac)
    target = DiracFamily(g)
    for k in (0, 7, 12):
        p = g.point_at(k)
        np.testing.assert_allclose(
            member(prod, p).samples, member(target, p).samples, atol=1e-12
        )


def test_family_product_grid_mismatch():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    with pytest.raises(GridMismatch):
        family_product(fam, fam)  # fam's space grid != fam's index grid


def test_kernel_coordinates_match_fourier_transform():
    g = make_grid(1, [32], [2.0])
    four = FourierFamily(g)
    kern = KernelFamily(four.index_grid, g, four.matrix())
    rng = np.random.default_rng(7)
    u = GridDistribution(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    np.testing.assert_allclose(
        coordinates(u, kern).samples, coordinates(u, four).samples, atol=1e-10
    )
    assert kern.condition_estimate() < 10.0


def test_kernel_ill_conditioned_raises():
    g = make_grid(1, [16], [2.0])
    rows = np.ones((16, 16), dtype=complex)  # rank one
    kern = KernelFamily(g, g, rows)
    with pytest.raises(IllConditioned):
        coordinates(zero_distribution(g) + 1.0, kern)


def test_kernel_as_basis_flags_and_rejects():
    g = make_grid(1, [16], [2.0])
    four = FourierFamily(g)
    good = KernelFamily(four.index_grid, g, four.matrix())
    assert not good.is_basis
    assert good.as_basis().is_basis
    # more index nodes than space nodes: synthesis is not injective, so the
    # coefficient round trip cannot hold
    big = make_grid(1, [32], [2.0])
    rng = np.random.default_rng(8)
    bad = KernelFamily(
        big, g, rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
    )
    with pytest.raises(NotABasis):
        bad.as_basis()


@pytest.mark.parametrize("kwargs", [{"probes": 0}, {"probes": -3}, {"tol": math.nan}])
def test_kernel_as_basis_refuses_to_verify_nothing(kwargs):
    # no probe would flag a zero kernel as a basis, and a NaN tolerance
    # passes every probe of a kernel with more members than nodes; with the
    # defaults both are refused
    g, big = make_grid(1, [8], [2.0]), make_grid(1, [16], [2.0])
    zero = KernelFamily(g, g, np.zeros((8, 8)))
    wide = KernelFamily(big, g, np.random.default_rng(8).standard_normal((16, 8)))
    for kernel, error in ((zero, IllConditioned), (wide, NotABasis)):
        with pytest.raises(error):
            kernel.as_basis()
        with pytest.raises(ValueError):
            kernel.as_basis(**kwargs)


def test_kernel_shape_validation():
    g = make_grid(1, [16], [2.0])
    with pytest.raises(GridMismatch):
        KernelFamily(g, g, np.zeros((4, 16)))


def test_kernel_svd_is_computed_once_across_threads(monkeypatch):
    g = make_grid(1, [16], [2.0])
    four = FourierFamily(g)
    kern = KernelFamily(four.index_grid, g, four.matrix())
    real_svd = np.linalg.svd
    calls = []

    def slow_svd(*args, **kwargs):
        calls.append(1)
        time.sleep(0.05)  # widen the window in which a second fill could start
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", slow_svd)
    start = threading.Barrier(4)
    results = []

    def estimate():
        start.wait(timeout=10)
        results.append(kern.condition_estimate())

    threads = [threading.Thread(target=estimate) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 and len(set(results)) == 1
    assert len(calls) == 1


def test_lazy_family_is_not_a_basis():
    # it holds no table to check one against
    g = make_grid(1, [8], [1.0])
    assert not LazyFamily(g, g, lambda rows: rows.copy()).is_basis


def test_lazy_family_coordinates_solve_on_its_own_table():
    # a lazy family holds a row map, no table: its coordinates are those of
    # the kernel family of the table the map builds, built afresh per call
    g = make_grid(1, [16], [3.0])
    fam = FourierFamily(g)
    seen = []

    def rows_map(rows):
        seen.append(rows.shape[0])
        return fam.superpose_rows(rows)

    lazy = LazyFamily(fam.index_grid, g, rows_map)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
    got = lazy.coordinates_rows(rows)
    assert seen == [fam.index_grid.size]
    want = KernelFamily(fam.index_grid, g, lazy.matrix()).coordinates_rows(rows)
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64))
    # the Fourier synthesis is invertible: least squares is its analysis
    assert np.max(np.abs(got - fam.coordinates_rows(rows))) <= 1e-12 * np.max(np.abs(got))
    u = GridDistribution(g, rows[0])
    assert np.array_equal(coordinates(u, lazy).samples, lazy.coordinates_rows(rows[:1])[0])


REPR_GRID = make_grid(1, [8], [math.pi])


@pytest.mark.parametrize(
    "value, names",
    [
        (DiracFamily(REPR_GRID), repr(REPR_GRID)),
        (FourierFamily(REPR_GRID), repr(REPR_GRID)),
        (KernelFamily(REPR_GRID, REPR_GRID, np.eye(8)), repr(REPR_GRID)),
        (LazyFamily(REPR_GRID, REPR_GRID, lambda rows: np.eye(8)[rows]), repr(REPR_GRID)),
        (zero_distribution(REPR_GRID), repr(REPR_GRID)),
        (DiagonalOperator(FourierFamily(REPR_GRID), unit_symbol(1)), "'one'"),
        (MultiplicationOperator(unit_symbol(1)), "'one'"),
    ],
    ids=["dirac", "fourier", "kernel", "lazy", "distribution", "diagonal", "multiplication"],
)
def test_repr_names_its_class_and_its_grid_or_symbol(value, names):
    assert repr(value).startswith(f"{type(value).__name__}(")
    assert names in repr(value)
