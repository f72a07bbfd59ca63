import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from schwartzcalc import (
    DifferentialOperatorSpec,
    DiracFamily,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    GridMismatch,
    KernelFamily,
    LazyFamily,
    NonFiniteSamples,
    NotDivisible,
    NotInvertible,
    SymbolFunction,
    coordinates,
    delta_distribution,
    differential_symbol,
    family_product,
    green_family,
    green_family_divided,
    left_inverse_family,
    make_grid,
    member,
    pairing,
    sample_function,
    solve,
    superpose,
    sup_norm,
    unit_symbol,
)
from schwartzcalc.cli import main, write_distribution_csv

from naive import dense_green, dense_green_half

HELMHOLTZ = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
DERIVATIVE = SymbolFunction(1, lambda p: -1j * p, "-ip")


def test_left_inverse_of_dirac_is_dirac():
    g = make_grid(1, [32], [2.0])
    mu = left_inverse_family(DiracFamily(g))
    assert isinstance(mu, DiracFamily)
    p = g.point_at(10)
    np.testing.assert_array_equal(
        member(mu, p).samples, delta_distribution(g, p).samples
    )


def test_left_inverse_of_fourier_formula():
    # coordinates of the node delta: (2*pi)^-n * exp(+i q p) on the dual grid
    g = make_grid(1, [32], [2.0])
    fam = FourierFamily(g)
    mu = left_inverse_family(fam)
    assert mu.index_grid == g
    assert mu.space_grid == fam.index_grid
    p = g.point_at(20)
    q = fam.index_grid.axis_points(0)
    expected = np.exp(1j * q * p[0]) / (2.0 * math.pi)
    np.testing.assert_allclose(member(mu, p).samples, expected, atol=1e-12)


def test_left_inverse_product_pairs_like_dirac():
    g = make_grid(1, [64], [4.0])
    fam = FourierFamily(g)
    prod = family_product(left_inverse_family(fam), fam)
    phi = lambda x: np.exp(-((x + 1.0) ** 2) / 2.0)
    for p in g.axis_points(0)[::8]:
        assert abs(pairing(member(prod, p), phi) - phi(np.array(p))) <= 1e-8


def test_green_family_helmholtz_kernel_first_order():
    # member at 0 approximates the decaying kernel 0.5*exp(-|x|); the kink
    # makes the frequency truncation error first order: sup error ~ dx/pi^2
    g = make_grid(1, [512], [10.0])
    lam = FourierFamily(g)
    result = green_family(lam, HELMHOLTZ, left_inverse_family(lam))
    G0 = member(result.family, (0.0,))
    x = g.axis_points(0)
    inner = np.abs(x) <= 5.0
    gap = np.max(np.abs(G0.samples[inner] - 0.5 * np.exp(-np.abs(x[inner]))))
    dx = g.spacings[0]
    model = dx / math.pi**2
    assert 0.5 * model <= gap <= 2.0 * model
    # halving dx halves the error
    g2 = make_grid(1, [1024], [10.0])
    lam2 = FourierFamily(g2)
    result2 = green_family(lam2, HELMHOLTZ, left_inverse_family(lam2))
    G0b = member(result2.family, (0.0,))
    x2 = g2.axis_points(0)
    inner2 = np.abs(x2) <= 5.0
    gap2 = np.max(np.abs(G0b.samples[inner2] - 0.5 * np.exp(-np.abs(x2[inner2]))))
    assert 1.6 <= gap / gap2 <= 2.4


def test_green_family_weak_residuals():
    g = make_grid(1, [256], [10.0])
    lam = FourierFamily(g)
    result = green_family(lam, HELMHOLTZ, left_inverse_family(lam))
    assert np.all(np.isfinite(result.weak_residuals))
    assert result.max_weak_residual() <= 1e-6
    assert len(result.probe_centers) == 8


def test_green_family_unit_symbol_reduces_to_product():
    g = make_grid(1, [64], [4.0])
    lam = FourierFamily(g)
    mu = left_inverse_family(lam)
    result = green_family(lam, unit_symbol(1), mu)
    prod = family_product(mu, lam)
    np.testing.assert_allclose(result.family.kernel, prod.kernel, atol=1e-12)
    phi = lambda x: np.exp(-(x**2))
    p = g.point_at(40)
    assert abs(pairing(member(result.family, p), phi) - phi(np.array(p[0]))) <= 1e-8


def test_green_family_rejects_vanishing_symbol():
    g = make_grid(1, [64], [4.0])
    lam = FourierFamily(g)
    with pytest.raises(NotInvertible) as info:
        green_family(lam, DERIVATIVE, left_inverse_family(lam))
    assert info.value.worst_point == (0.0,)


@pytest.mark.parametrize("build", [green_family, green_family_divided])
@pytest.mark.parametrize("counts, half_extent", [(8, 4.0), (16, 2.0)], ids=["8-nodes", "other-extents"])
def test_green_refuses_a_left_inverse_off_the_index_grid(build, counts, half_extent):
    # mu is indexed by lam's space grid, but its members live on a grid other
    # than lam's index grid, so they are not coefficients for lam: refused
    # before anything is built, as family_product refuses them
    g = make_grid(1, [16], [4.0])
    lam = FourierFamily(g)
    space = make_grid(1, [counts], [half_extent])
    assert space != lam.index_grid
    mu = KernelFamily(g, space, np.random.default_rng(0).standard_normal((g.size, space.size)))
    for run in (lambda: build(lam, HELMHOLTZ, mu), lambda: family_product(mu, lam)):
        with pytest.raises(GridMismatch):
            run()


def test_green_member_equals_delta_solve():
    g = make_grid(1, [128], [6.0])
    lam = FourierFamily(g)
    result = green_family(lam, HELMHOLTZ, left_inverse_family(lam))
    p = g.point_at(37)
    direct = solve(lam, HELMHOLTZ, delta_distribution(g, p))
    gap = sup_norm(direct.solution - member(result.family, p))
    assert gap <= 1e-12 * sup_norm(direct.solution)


def test_green_family_divided_agrees_without_zeros():
    g = make_grid(1, [64], [4.0])
    lam = FourierFamily(g)
    mu = left_inverse_family(lam)
    plain = green_family(lam, HELMHOLTZ, mu)
    divided = green_family_divided(lam, HELMHOLTZ, mu)
    gap = np.max(np.abs(plain.family.kernel - divided.family.kernel))
    assert gap <= 1e-12 * np.max(np.abs(plain.family.kernel))


# ---------------------------------------------------------------------------
# one division rule: the Green routes divide as the solver does

COMPLEX_HELMHOLTZ = SymbolFunction(1, lambda p: 2.0 + 0.5j * p + (1.0 - 0.25j) * p**2, "complex")
SQUARE = SymbolFunction(1, lambda x: x**2, "x^2")


def _same_words(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64)
    )


@pytest.mark.parametrize("family", [FourierFamily, DiracFamily])
@pytest.mark.parametrize("l", [HELMHOLTZ, COMPLEX_HELMHOLTZ], ids=["real", "complex"])
def test_divided_without_zeros_is_bitwise_the_reciprocal_route(family, l):
    lam = family(make_grid(1, [64], [4.0]))
    mu = left_inverse_family(lam)
    plain = green_family(lam, l, mu)
    divided = green_family_divided(lam, l, mu)
    assert plain.route == divided.route == "reciprocal"
    assert _same_words(divided.family.matrix(), plain.family.matrix())
    assert _same_words(divided.weak_residuals, plain.weak_residuals)


def test_divided_route_is_named_when_the_symbol_has_a_zero_node():
    g = make_grid(1, [32], [5.0])
    lam = DiracFamily(g)
    result = green_family_divided(
        lam, SQUARE, left_inverse_family(lam), DivisionPolicy(residual_threshold=1.0)
    )
    assert result.route == "divided"
    # the quotient is 0 on the zero set, so the member at the zero node is 0
    assert not member(result.family, (0.0,)).samples.any()
    assert member(result.family, (-1.25,)).samples.any()


@pytest.mark.parametrize(
    "family, l, policy",
    [
        (FourierFamily, COMPLEX_HELMHOLTZ, None),
        (DiracFamily, COMPLEX_HELMHOLTZ, None),
        (DiracFamily, SQUARE, DivisionPolicy(residual_threshold=1.0)),
    ],
    ids=["fourier-complex", "dirac-complex", "dirac-divided"],
)
def test_green_members_are_bitwise_the_solve_of_a_point_mass(family, l, policy):
    # G_p is the solution of L G_p = delta_p: the same analysis, quotient
    # and synthesis, on the complex path (the symbols are not real and even)
    g = make_grid(1, [32], [5.0])
    lam = family(g)
    builds = (green_family_divided,) if policy else (green_family, green_family_divided)
    for build in builds:
        green = build(lam, l, left_inverse_family(lam), policy).family
        for k in (3, 16, 29):
            p = g.point_at(k)
            direct = solve(lam, l, delta_distribution(g, p), policy).solution
            assert _same_words(member(green, p).samples, direct.samples), (build, k)


def test_green_family_divided_mean_removed_antiderivative():
    # d/dx with the constant mode removed from the left inverse: division
    # succeeds and L G_p pairs like delta_p minus the box mean
    g = make_grid(1, [64], [math.pi])
    lam = FourierFamily(g)
    mu = left_inverse_family(lam)
    rows = np.array(mu.matrix(), copy=True)
    zero_mode = lam.index_grid.index_of((0.0,))
    rows[:, zero_mode] = 0.0
    mu_trimmed = KernelFamily(mu.index_grid, mu.space_grid, rows)
    result = green_family_divided(lam, DERIVATIVE, mu_trimmed)
    phi_vals = sample_function(g, lambda x: np.exp(np.cos(x)))
    phi_mean = float(np.mean(phi_vals.samples.real))
    for k in (5, 32, 50):
        p = g.point_at(k)
        # pair L G_p with phi: expect phi(p) - mean(phi)
        Gp = member(result.family, p)
        image = superpose(
            coordinates(Gp, lam) * DERIVATIVE.sample(lam.index_grid), lam
        )
        got = pairing(image, phi_vals)
        expected = phi_vals.samples[k].real - phi_mean
        assert abs(got - expected) <= 1e-8


def test_green_family_divided_rejects_mass_on_zero_set():
    g = make_grid(1, [64], [math.pi])
    lam = FourierFamily(g)
    mu = left_inverse_family(lam)
    with pytest.raises(NotDivisible):
        green_family_divided(lam, DERIVATIVE, mu)


def test_green_family_divided_degenerate_policy():
    g = make_grid(1, [64], [4.0])
    lam = FourierFamily(g)
    mu = left_inverse_family(lam)
    with pytest.raises(NotDivisible):
        green_family_divided(
            lam, HELMHOLTZ, mu, DivisionPolicy(zero_threshold=sys.float_info.max)
        )


def test_self_inverse_family_round_trips():
    # when the product of a family with itself is the Dirac family, its
    # analysis/synthesis round trip must hold
    g = make_grid(1, [32], [2.0])
    dirac = DiracFamily(g)
    prod = family_product(left_inverse_family(dirac), dirac)
    target = DiracFamily(g).matrix()
    assert np.max(np.abs(prod.kernel - target)) <= 1e-10 / g.cell_volume
    rng = np.random.default_rng(31)
    c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    from schwartzcalc import GridDistribution

    cd = GridDistribution(g, c)
    back = coordinates(superpose(cd, dirac), dirac)
    assert np.max(np.abs(back.samples - c)) <= 1e-8 * np.max(np.abs(c))


# ---------------------------------------------------------------------------
# lazy families against the dense oracle

# (dim, counts, half extents); 48^2 is the benchmark's 2-d Green grid
ORACLE_GRIDS = {
    "1d-64": (1, [64], [4.0]),
    "1d-1024": (1, [1024], [20.0]),
    "2d-16": (2, [16, 16], [3.0, 3.0]),
    "2d-48": (2, [48, 48], [8.0, 8.0]),
}


def _helmholtz_terms(dim):
    """``1 - Laplacian`` as CLI coefficients and as a library spec, same order."""
    zero = (0,) * dim
    seconds = [tuple(2 if a == axis else 0 for a in range(dim)) for axis in range(dim)]
    keys = [zero] + seconds
    cli = {",".join(map(str, k)): (1 if k == zero else -1) for k in keys}
    spec = DifferentialOperatorSpec({k: complex(1 if k == zero else -1) for k in keys})
    return cli, spec


@pytest.fixture(scope="module", params=sorted(ORACLE_GRIDS))
def oracle_case(request):
    dim, counts, extents = ORACLE_GRIDS[request.param]
    g = make_grid(dim, counts, extents)
    lam = FourierFamily(g)
    cli_terms, spec = _helmholtz_terms(dim)
    l = differential_symbol(spec, lam.index_grid)
    eye = np.eye(g.size, dtype=np.complex128) / g.cell_volume
    mu_rows = lam.coordinates_rows(eye)
    del eye
    return {
        "grid": g,
        "lam": lam,
        "l": l,
        "cli_terms": cli_terms,
        "mu_rows": mu_rows,
        False: dense_green(lam, l, mu_rows=mu_rows),
        True: dense_green(lam, l, divided=True, mu_rows=mu_rows),
        # the members of the real, even symbol are real: the half spectra
        "half": dense_green_half(lam, l),
    }


@pytest.mark.parametrize("divided", [False, True], ids=["reciprocal", "divided"])
def test_lazy_green_matches_dense_oracle(oracle_case, divided):
    lam, l, g = oracle_case["lam"], oracle_case["l"], oracle_case["grid"]
    mu = left_inverse_family(lam)
    assert isinstance(mu, LazyFamily)
    build = green_family_divided if divided else green_family
    result = build(lam, l, mu)
    assert isinstance(result.family, LazyFamily)
    table, residuals = oracle_case[divided]
    half = oracle_case["half"]
    mu_rows = oracle_case["mu_rows"]
    for k in range(g.size):
        p = g.point_at(k)
        assert np.array_equal(member(mu, p).samples, mu_rows[k]), k
        assert np.array_equal(member(result.family, p).samples, half[k]), k
    assert np.array_equal(result.family.matrix(), half)
    assert np.array_equal(mu.matrix(), mu_rows)
    # the half-spectrum table is the complex one to rounding
    assert np.max(np.abs(half - table)) <= 1e-14 * np.max(np.abs(table))
    np.testing.assert_allclose(result.weak_residuals, residuals, rtol=0.0, atol=1e-14)


def test_green_errors_match_dense_oracle(oracle_case):
    lam, g = oracle_case["lam"], oracle_case["grid"]
    mu = left_inverse_family(lam)
    vanishing = SymbolFunction(g.dim, lambda *p: -1j * p[0], "-ip0")
    for build, divided, error in (
        (green_family, False, NotInvertible),
        (green_family_divided, True, NotDivisible),
    ):
        with pytest.raises(error) as got:
            build(lam, vanishing, mu)
        with pytest.raises(error) as want:
            dense_green(lam, vanishing, divided=divided, mu_rows=oracle_case["mu_rows"])
        assert got.value.worst_index == want.value.worst_index
        assert got.value.worst_point == want.value.worst_point
        assert got.value.magnitude == want.value.magnitude


def test_cli_green_csvs_equal_oracle_rows(oracle_case, tmp_path):
    g = oracle_case["grid"]
    table = oracle_case["half"]
    flats = [0, g.size // 3, g.size - 1]
    points = [g.point_at(k) for k in flats]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "grid": {"dim": g.dim, "counts": list(g.counts), "half_extents": list(g.half_extents)},
        "operator": {"type": "differential", "coefficients": oracle_case["cli_terms"]},
        "output": {"directory": str(tmp_path / "out")},
    }))
    argv = ["green", "--config", str(cfg)]
    for p in points:
        argv += ["--index", ",".join(repr(c) for c in p)]
    assert main(argv) == 0
    for n, k in enumerate(flats):
        expected = tmp_path / f"oracle_{n:03d}.csv"
        write_distribution_csv(expected, GridDistribution(g, table[k]))
        assert (tmp_path / "out" / f"green_{n:03d}.csv").read_bytes() == expected.read_bytes()


def test_divided_check_stops_at_first_offending_block():
    # rows below 700 carry no mass on the zero mode; the scan must name row
    # 700 and build only the blocks up to it
    g = make_grid(1, [1024], [20.0])
    lam = FourierFamily(g)
    rows = np.array(left_inverse_family(lam).matrix(), copy=True)
    rows[:700, lam.index_grid.index_of((0.0,))] = 0.0
    table = KernelFamily(g, lam.index_grid, rows)
    seen = []

    def rows_map(c):
        seen.append(c.shape[0])
        return table.superpose_rows(c)

    mu = LazyFamily(g, lam.index_grid, rows_map, table.coordinates_rows)
    with pytest.raises(NotDivisible) as got:
        green_family_divided(lam, DERIVATIVE, mu)
    with pytest.raises(NotDivisible) as want:
        dense_green(lam, DERIVATIVE, divided=True, mu_rows=rows)
    assert got.value.worst_index == want.value.worst_index == 700
    assert got.value.worst_point == want.value.worst_point
    # the lazy rows pass through the table's synthesis, (1/dx)*dx of rounding
    assert got.value.magnitude == pytest.approx(want.value.magnitude, rel=1e-14)
    assert 700 < sum(seen) < g.size


def test_fourier_green_build_allocates_no_dense_table():
    # one 2048 x 2048 complex table is 64 MiB; the dense build peaked near 470 MB
    g = make_grid(1, [2048], [20.0])
    lam = FourierFamily(g)
    tracemalloc.start()
    try:
        result = green_family(lam, HELMHOLTZ, left_inverse_family(lam))
        member(result.family, (0.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_translate_pairings_equal_dense_pairings():
    # the public route always pairs L G_p ~ delta_p, which is symmetric; an
    # operator other than the one the family inverts gives an asymmetric
    # generating row, which pins the direction of the cross-correlation
    # (each probe against its own product, against all 8 in one product)
    from schwartzcalc.families import _transform_pair
    from schwartzcalc.green import _weak_residuals

    g = make_grid(2, [16, 8], [3.0, 2.0])
    lam = FourierFamily(g)
    l = SymbolFunction(2, lambda p, q: 1.0 + p**2 + q**2, "1+|p|^2")
    other = SymbolFunction(2, lambda p, q: 1.0 + p + 2j * q + p * q**2, "asymmetric")
    green = green_family(lam, l, left_inverse_family(lam)).family
    pair = _transform_pair(lam, other, not green.matrix().imag.any())
    fast, fast_centers = _weak_residuals(g, pair, green, "translation")
    dense, centers = _weak_residuals(g, pair, green, "dense")
    assert fast_centers == centers and len(centers) == 8
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=1e-12 * np.max(dense))


LAPLACIAN_2D = DifferentialOperatorSpec({(2, 0): -1.0, (0, 2): -1.0})


@pytest.mark.parametrize("threshold", [1e-10, 0.5, 1.0 - 2.0**-52, 1.0, 2.0])
def test_divided_fourier_check_builds_one_member(monkeypatch, threshold):
    # member 0 of the canonical Fourier left inverse has one magnitude at
    # every node, the largest ratio any member has, and comes first: it
    # alone decides, and names the member the full scan names (the scan
    # built all 4096 members of a 64^2 grid when none offends)
    g = make_grid(2, [64, 64], [4.0, 4.0])
    lam = FourierFamily(g)
    l = differential_symbol(LAPLACIAN_2D, lam.index_grid)
    policy = DivisionPolicy(residual_threshold=threshold)
    built = []
    analysis = FourierFamily.coordinates_rows

    def counting(self, rows):
        built.append(rows.shape[0])
        return analysis(self, rows)

    monkeypatch.setattr(FourierFamily, "coordinates_rows", counting)
    mu = left_inverse_family(lam)
    if threshold >= 1.0:
        assert green_family_divided(lam, l, mu, policy).route == "divided"
        assert built == [1]
        return
    with pytest.raises(NotDivisible) as got:
        green_family_divided(lam, l, mu, policy)
    assert built == [1]
    # the oracle stops at its first offending row, so its leading rows decide
    monkeypatch.setattr(FourierFamily, "coordinates_rows", analysis)
    rows = lam.coordinates_rows(np.eye(64, g.size, dtype=np.complex128) / g.cell_volume)
    with pytest.raises(NotDivisible) as want:
        dense_green(lam, l, policy, divided=True, mu_rows=rows)
    assert got.value.worst_index == want.value.worst_index == 0
    assert got.value.worst_point == want.value.worst_point
    assert got.value.magnitude == want.value.magnitude


@pytest.mark.parametrize("counts", [[1024], [16, 16], [12, 8]])
@pytest.mark.parametrize("threshold", [1e-10, 0.5, 1.0 - 2.0**-52, 1.0, 2.0])
def test_divided_fourier_check_is_the_full_scan(counts, threshold):
    # against every row of the dense oracle: the same error and fields, or none
    dim = len(counts)
    g = make_grid(dim, counts, [4.0] * dim)
    lam = FourierFamily(g)
    l = SymbolFunction(dim, lambda *p: sum(t**2 for t in p) - 1j * p[0], "|p|^2 - ip")
    policy = DivisionPolicy(residual_threshold=threshold)
    try:
        dense_green(lam, l, policy, divided=True)
    except NotDivisible as want:
        with pytest.raises(NotDivisible) as got:
            green_family_divided(lam, l, left_inverse_family(lam), policy)
        assert got.value.worst_index == want.worst_index
        assert got.value.worst_point == want.worst_point
        assert got.value.magnitude == want.magnitude
    else:
        assert threshold >= 1.0
        assert green_family_divided(lam, l, left_inverse_family(lam), policy).route == "divided"


def _grid_arrays(build, grid):
    """The traced peak of ``build()``, in complex arrays of ``grid``'s size,
    after one untraced build has filled the first-call caches."""
    build()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * grid.size)


@pytest.mark.parametrize("n", [48, 128])
def test_fourier_green_build_holds_no_probe_table(n):
    # the probes are paired one at a time against one spectrum of the
    # generating row; the N x 8 probe pass peaked at 42 arrays
    g = make_grid(2, [n, n], [4.0, 4.0])
    lam = FourierFamily(g)
    mu = left_inverse_family(lam)
    l = SymbolFunction(2, lambda p, q: 1.0 + p**2 + q**2, "1+|p|^2")
    arrays = _grid_arrays(lambda: green_family(lam, l, mu), g)
    assert arrays <= 10, f"{arrays:.2f} arrays"


DIRAC_ZEROS = SymbolFunction(2, lambda x, y: x**2 + y**2, "|x|^2")


@pytest.mark.parametrize("divided", [False, True])
def test_dirac_green_build_holds_no_table(divided):
    # L G is diagonal: its pairings cost O(N) (one N x N table at 48^2 is
    # 2304 arrays; the dense pairing peaked at 4 of them).  The divided
    # route takes a symbol with a zero at the origin, judged with a residual
    # threshold of 1 so that the point mass there passes.
    g = make_grid(2, [48, 48], [4.0, 4.0])
    lam = DiracFamily(g)
    mu = left_inverse_family(lam)
    if divided:
        build = lambda: green_family_divided(lam, DIRAC_ZEROS, mu, DivisionPolicy(residual_threshold=1.0))
    else:
        build = lambda: green_family(lam, SymbolFunction(2, lambda x, y: 1.0 + x**2 + y**2, "1+|x|^2"), mu)
    arrays = _grid_arrays(build, g)
    assert arrays <= 12, f"{arrays:.2f} arrays"
    assert build().route == ("divided" if divided else "reciprocal")


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("counts", [[64], [1024], [16, 16], [48, 48]])
@pytest.mark.parametrize("divided", [False, True])
def test_dirac_green_is_the_dense_green(counts, divided):
    # the diagonal of L G times each probe gives the bits of the dense
    # product: every off-diagonal term is an exact zero
    dim = len(counts)
    g = make_grid(dim, counts, [4.0] * dim)
    lam = DiracFamily(g)
    policy = DivisionPolicy(residual_threshold=1.0)
    offset = 0.0 if divided else 1.0
    l = SymbolFunction(dim, lambda *x: offset + sum(t**2 for t in x) + 0.25j * x[0], "complex")
    build = green_family_divided if divided else green_family
    result = build(lam, l, left_inverse_family(lam), policy)
    table, residuals = dense_green(lam, l, policy, divided=divided)
    assert result.route == ("divided" if divided else "reciprocal")
    assert _same_bits(result.weak_residuals, residuals)
    for k in range(0, g.size, max(1, g.size // 16)):
        assert _same_bits(result.family.member(g.point_at(k)).samples, table[k])


def test_weak_residual_that_overflows_is_a_typed_error():
    # a finite member whose L G_p overflows in its analysis: the residual is
    # nan, and the family is not certified (it was, with NaN)
    g = make_grid(1, [1024], [20.0])
    lam = FourierFamily(g)
    l = SymbolFunction(1, lambda p: 1e-307 * (1.0 + p**2), "1e-307 (1+p^2)")
    with pytest.raises(NonFiniteSamples, match=r"weak residual at index node \(-20.0,\) is nan"):
        green_family(lam, l, left_inverse_family(lam))


def test_verify_green_suite_builds_each_dense_table_once(monkeypatch):
    from schwartzcalc.verify import _suite_green

    builds = []
    original = LazyFamily.matrix

    def counting(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(LazyFamily, "matrix", counting)
    checks = _suite_green(np.random.default_rng(42))
    assert all(c.passed for c in checks)
    # the reciprocal and the divided Green tables, one build each
    assert len(builds) == 2
