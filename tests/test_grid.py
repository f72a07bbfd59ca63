import math

import numpy as np
import pytest

from schwartzcalc import (
    DiracFamily,
    GridDistribution,
    IndexOffGrid,
    InvalidGrid,
    NonFiniteSamples,
    GridMismatch,
    ArityMismatch,
    SymbolFunction,
    constant_symbol,
    delta_distribution,
    dual_grid,
    make_grid,
    pairing,
    quadrature_weight,
    unit_symbol,
)


def test_make_grid_1d_points():
    g = make_grid(1, [8], [math.pi])
    expected = -math.pi + math.pi / 4 * np.arange(8)
    np.testing.assert_allclose(g.axis_points(0), expected, atol=1e-15)
    assert g.size == 8


def test_make_grid_2d_spacings():
    g = make_grid(2, [4, 4], [1.0, 2.0])
    assert g.size == 16
    assert g.spacings == (0.5, 1.0)
    pts = g.points()
    assert pts.shape == (16, 2)
    # row-major: axis 0 slowest
    np.testing.assert_allclose(pts[0], [-1.0, -2.0])
    np.testing.assert_allclose(pts[1], [-1.0, -1.0])
    np.testing.assert_allclose(pts[4], [-0.5, -2.0])


@pytest.mark.parametrize(
    "dim,counts,extents",
    [
        (1, [7], [1.0]),      # odd count
        (1, [2], [1.0]),      # too small
        (1, [8], [0.0]),      # zero extent
        (1, [8], [-2.0]),     # negative extent
        (2, [8], [1.0, 1.0]),  # length mismatch
        (0, [], []),           # bad dimension
    ],
)
def test_make_grid_rejects(dim, counts, extents):
    with pytest.raises(InvalidGrid):
        make_grid(dim, counts, extents)


def test_dual_grid_frequencies():
    g = make_grid(1, [8], [math.pi])
    d = dual_grid(g)
    np.testing.assert_allclose(d.axis_points(0), np.arange(-4, 4), atol=1e-14)

    g2 = make_grid(1, [4], [1.0])
    d2 = dual_grid(g2)
    np.testing.assert_allclose(d2.axis_points(0), np.array([-2, -1, 0, 1]) * math.pi)


def test_dual_grid_involution_and_pairing_identity():
    g = make_grid(2, [8, 16], [1.5, 4.0])
    d = dual_grid(g)
    dd = dual_grid(d)
    for ax in range(2):
        assert g.spacings[ax] == pytest.approx(dd.spacings[ax], rel=1e-12)
        # dx * dp * N = 2*pi per axis
        assert g.spacings[ax] * d.spacings[ax] * g.counts[ax] == pytest.approx(
            2 * math.pi, rel=1e-12
        )


@pytest.mark.parametrize(
    "dim,counts,extents,expected",
    [
        (1, [8], [math.pi], math.pi / 4),
        (2, [4, 4], [1.0, 2.0], 0.5),
        (1, [4], [1.0], 0.5),
    ],
)
def test_quadrature_weight(dim, counts, extents, expected):
    g = make_grid(dim, counts, extents)
    assert quadrature_weight(g) == pytest.approx(expected, rel=1e-14)
    # total measure of the box
    assert quadrature_weight(g) * g.size == pytest.approx(
        math.prod(2 * L for L in g.half_extents), rel=1e-12
    )


def test_index_of_roundtrip_and_tolerance():
    g = make_grid(2, [8, 4], [2.0, 1.0])
    for flat in (0, 5, 17, 31):
        assert g.index_of(g.point_at(flat)) == flat
    # tiny float fuzz is accepted
    p = np.array(g.point_at(9)) + 1e-12
    assert g.index_of(p) == 9
    with pytest.raises(IndexOffGrid):
        g.index_of((0.3, 0.0))
    with pytest.raises(IndexOffGrid):
        g.index_of((5.0, 0.0))  # out of the box


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308, -1e308])
def test_non_finite_or_overflowing_point_is_off_the_grid(x):
    # 1e308 is finite, but (x + L) / dx is not
    g = make_grid(1, [8], [2.0])
    with pytest.raises(IndexOffGrid):
        g.index_of((x,))
    with pytest.raises(IndexOffGrid):
        DiracFamily(g).member((x,))


@pytest.mark.parametrize(
    "x, node", [(1e30, 1.5), (-1e30, -2.0), (math.inf, 1.5), (5.0, 1.5), (0.3, 0.5)]
)
def test_off_grid_message_names_plain_floats_and_a_node_on_the_grid(x, node):
    g = make_grid(1, [8], [2.0])
    with pytest.raises(IndexOffGrid) as info:
        g.index_of((x,))
    assert str(info.value) == (
        f"point ({x!r},) is not a node of the grid (axis 0: nearest node {node:g})"
    )
    with pytest.raises(IndexOffGrid) as info:
        g.index_of((math.nan,))
    assert "(nan,)" in str(info.value) and "nearest" not in str(info.value)


@pytest.mark.parametrize("L", [1e308, -1e308, 9e307])
def test_half_extent_whose_width_overflows_is_named(L):
    with pytest.raises(InvalidGrid) as info:
        make_grid(1, [8], [L])
    assert repr(L) in str(info.value)
    make_grid(1, [8], [8e307])  # 2L is finite


@pytest.mark.parametrize("L", [1e-320, 5e-324])
def test_half_extent_whose_dual_overflows_is_named(L):
    g = make_grid(1, [8], [L])
    with pytest.raises(InvalidGrid) as info:
        dual_grid(g)
    assert repr(L) in str(info.value)


def test_grid_distribution_validation_and_immutability():
    g = make_grid(1, [8], [1.0])
    with pytest.raises(GridMismatch):
        GridDistribution(g, np.zeros(7))
    with pytest.raises(ValueError):
        GridDistribution(g, np.full(8, np.nan))
    u = GridDistribution(g, np.arange(8.0))
    with pytest.raises(ValueError):
        u.samples[0] = 5.0
    with pytest.raises(AttributeError):
        u.samples = np.zeros(8)


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                    reason="longdouble is no wider than float64 here")
def test_samples_wider_than_a_double_are_scanned_as_stored():
    # 1e400 is finite as a longdouble and inf as the double that is stored
    g = make_grid(1, [4], [1.0])
    for wide in (np.full(4, np.longdouble("1e400")), np.full(4, np.clongdouble("1e400"))):
        with pytest.raises(NonFiniteSamples):
            GridDistribution(g, wide)
    # a wide value that fits a double is kept, as real-built
    d = GridDistribution(g, np.full(4, np.longdouble("1.5")))
    assert d._real and np.array_equal(d.samples, np.full(4, 1.5 + 0j))


def test_distribution_arithmetic():
    g = make_grid(1, [8], [1.0])
    u = GridDistribution(g, np.arange(8.0))
    v = GridDistribution(g, np.ones(8))
    np.testing.assert_allclose((u + v).samples, np.arange(8.0) + 1)
    np.testing.assert_allclose((u - v).samples, np.arange(8.0) - 1)
    np.testing.assert_allclose((2j * u).samples, 2j * np.arange(8))
    other = GridDistribution(make_grid(1, [8], [2.0]), np.ones(8))
    with pytest.raises(GridMismatch):
        u + other


def test_delta_pairing_reproduces_point_evaluation():
    g = make_grid(1, [64], [4.0])
    phi = lambda x: np.exp(-(x**2)) * (1 + x)
    for p in (0.0, 1.0, -2.5):
        d = delta_distribution(g, p)
        assert pairing(d, phi) == pytest.approx(phi(np.array(p)), abs=1e-14)


def test_negated_distribution_negates_every_sample():
    g = make_grid(2, [4, 4], [1.0, 1.0])
    u = GridDistribution(g, np.array([0.0, -0.0, 1.5, -2.0j, 3.0 + 1.0j, -1e300, 5e-324, 7.0] * 2))
    neg = -u
    assert neg.grid == g
    assert np.array_equal(neg.samples.view(np.uint64), (-u.samples).view(np.uint64))
    assert not neg.samples.flags.writeable
    assert np.all((neg + u).samples == 0.0)


def test_pairing_with_a_raw_array_is_the_quadrature_sum():
    g = make_grid(2, [4, 6], [1.0, 1.5])
    rng = np.random.default_rng(5)
    u = GridDistribution(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    phi = rng.standard_normal(g.counts) - 0.5j * rng.standard_normal(g.counts)
    literal = complex(np.sum(u.samples * phi.reshape(-1)) * g.cell_volume)
    for raw in (phi, phi.reshape(-1), phi.reshape(-1).tolist()):
        assert pairing(u, raw) == literal
    assert pairing(u, GridDistribution(g, phi.reshape(-1))) == literal
    with pytest.raises(GridMismatch, match="wrong length"):
        pairing(u, phi.reshape(-1)[:-1])
    with pytest.raises(GridMismatch, match="different grids"):
        pairing(u, GridDistribution(make_grid(2, [4, 6], [1.0, 2.0]), phi.reshape(-1)))


def test_symbol_function_eval_and_algebra():
    f = SymbolFunction(1, lambda p: -1j * p, "-ip")
    assert f.at(2.0) == pytest.approx(-2j)
    g = make_grid(1, [8], [math.pi])
    np.testing.assert_allclose(f.sample(g), -1j * g.axis_points(0))
    h = SymbolFunction(1, lambda p: p**2, "p^2")
    np.testing.assert_allclose((f * h).sample(g), -1j * g.axis_points(0) ** 3)
    np.testing.assert_allclose((f + h).sample(g), -1j * g.axis_points(0) + g.axis_points(0) ** 2)
    np.testing.assert_allclose((2.0 * h).sample(g), 2 * g.axis_points(0) ** 2)
    assert unit_symbol(2).at((0.3, 0.4)) == 1.0
    assert constant_symbol(1, 3 - 1j).at(5.0) == 3 - 1j


def test_index_point_with_the_wrong_number_of_coordinates_is_off_the_grid():
    g = make_grid(2, [4, 4], [1.0, 1.0])
    with pytest.raises(IndexOffGrid, match="must have 2 coordinates"):
        g.index_of([0.0])


def test_symbol_of_no_coordinates_is_refused():
    with pytest.raises(ArityMismatch, match="arity must be >= 1"):
        SymbolFunction(0, lambda: 1.0)


def test_symbol_arity_checks():
    f = SymbolFunction(2, lambda p, q: p + q)
    with pytest.raises(ArityMismatch):
        f.at(1.0)
    with pytest.raises(ArityMismatch):
        f.sample(make_grid(1, [8], [1.0]))
    with pytest.raises(ArityMismatch):
        f * SymbolFunction(1, lambda p: p)
