import json
import math
import tracemalloc

import numpy as np
import pytest

from schwartzcalc import (
    DifferentialOperatorSpec,
    DiracFamily,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    KernelFamily,
    LazyFamily,
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

from naive import dense_green

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
            lam, HELMHOLTZ, mu, DivisionPolicy(zero_threshold=math.inf)
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
    mu_rows = oracle_case["mu_rows"]
    for k in range(g.size):
        p = g.point_at(k)
        assert np.array_equal(member(mu, p).samples, mu_rows[k]), k
        assert np.array_equal(member(result.family, p).samples, table[k]), k
    assert np.array_equal(result.family.matrix(), table)
    assert np.array_equal(mu.matrix(), mu_rows)
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
    table = oracle_case[False][0]
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

    mu = LazyFamily(g, lam.index_grid, rows_map)
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
    from schwartzcalc.green import _image_rows, _translate_pairings, gaussian_probes

    g = make_grid(2, [16, 8], [3.0, 2.0])
    lam = FourierFamily(g)
    l = SymbolFunction(2, lambda p, q: 1.0 + p**2 + q**2, "1+|p|^2")
    other = SymbolFunction(2, lambda p, q: 1.0 + p + 2j * q + p * q**2, "asymmetric")
    green = green_family(lam, l, left_inverse_family(lam)).family
    weighted = gaussian_probes(g)[0] * g.cell_volume
    other_values = other.sample(lam.index_grid)
    dense = _image_rows(lam, other_values, green.matrix()) @ weighted
    fast = _translate_pairings(lam, other_values, green, weighted)
    np.testing.assert_allclose(fast, dense, rtol=0.0, atol=1e-12 * np.max(np.abs(dense)))
