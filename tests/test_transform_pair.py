"""The one transform pair chooser and what it makes real.

``families._transform_pair`` picks half spectra for real rows under a real,
even symbol on the Fourier family, and the complex pair otherwise.  These
tests pin the rule, the bits of every path that takes the half pair against
the step-by-step references ``naive.literal_apply_half`` and
``naive.dense_green_half`` (and those references against the complex
composition, to 1e-14), the real Green members that follow, and the typed
error of the library sites that sample a symbol.
"""

import csv
import json
import math

import numpy as np
import pytest

import naive
from schwartzcalc import (
    ArityMismatch,
    DifferentialOperatorSpec,
    DiracFamily,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    IdentityOperator,
    MultiplicationOperator,
    NonFiniteSymbol,
    SymbolFunction,
    delta_distribution,
    dense_from_diagonal,
    differential_symbol,
    eigenspectrum_measure,
    green_family,
    green_family_divided,
    left_inverse_family,
    make_grid,
    sample_function,
    scale_family,
    solve,
    spectral_apply,
    spectral_product,
    spectrum_identity,
)
from schwartzcalc import families
from schwartzcalc.cli import _parse_symbol, main

GRIDS = {
    "1d-64": ([64], [6.0]),
    "1d-10": ([10], [2.0]),
    "2d-12x10": ([12, 10], [3.0, 2.5]),
    "3d-4x6x8": ([4, 6, 8], [1.5, 2.0, 2.5]),
}


def same_words(x, y):
    """Bitwise equality read as unsigned words, so signed zeros count."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64)
    )


def _grid(name):
    counts, extents = GRIDS[name]
    return make_grid(len(counts), counts, extents)


def _helmholtz(fam):
    """``1 - Laplacian``: the real, even symbol ``1 + |p|^2``."""
    dim = fam.space_grid.dim
    unit = (0,) * dim
    spec = {unit: 1.0, **{tuple(2 * (i == k) for i in range(dim)): -1.0 for k in range(dim)}}
    return differential_symbol(DifferentialOperatorSpec(spec), fam.index_grid)


def _one_plus_p2(dim):
    """``1 + |p|^2`` as the config's ``polynomial`` symbol."""
    unit = ",".join(["0"] * dim)
    terms = {unit: 1.0}
    for k in range(dim):
        terms[",".join("2" if i == k else "0" for i in range(dim))] = 1.0
    return _parse_symbol({"name": "polynomial", "terms": terms}, dim)


def _real_datum(g):
    return sample_function(g, lambda *xs: np.exp(-sum((x - 0.3) ** 2 for x in xs)) * np.cos(xs[0]))


def _relative(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


# ---------------------------------------------------------------------------
# the rule


def test_the_pair_is_chosen_from_the_symbol_the_family_and_the_rows():
    g = _grid("2d-12x10")
    fourier, dirac = FourierFamily(g), DiracFamily(g)
    real_even = _helmholtz(fourier)
    plain = SymbolFunction(2, lambda p, q: 1.0 + p**2 + q**2, "1+|p|^2")
    real = np.ones((1, g.size), dtype=np.complex128)
    nudged = real.copy()
    nudged[0, 5] += 5e-324j
    for v, a, rows, half in (
        (fourier, real_even, real, True),
        (fourier, real_even, real.real, True),
        (fourier, real_even, nudged, False),
        (fourier, real_even, None, False),
        (fourier, plain, real, False),
        (dirac, real_even, real, False),
    ):
        pair = families._transform_pair(v, a, rows is not None and not rows.imag.any())
        assert pair.half is half
        assert (pair.l2 is families._half_l2) is half
        expected = (g.counts[0], g.counts[1] // 2 + 1) if half else (g.size,)
        assert pair.a_values.shape == expected


@pytest.mark.parametrize(
    "family_dim, terms",
    [((2,), {(0,): 1.0, (2,): -1.0}), ((1,), {(0, 0): 1.0, (0, 2): -1.0})],
    ids=["1d-on-2d", "2d-(0,2)-on-1d"],
)
def test_apply_and_the_dense_oracle_check_the_symbol_arity(family_dim, terms):
    # real, even symbols on a real datum: the half pair would be taken
    grids = {1: make_grid(1, [16], [4.0]), 2: make_grid(2, [8, 8], [3.0, 3.0])}
    fam = FourierFamily(grids[family_dim[0]])
    spec = DifferentialOperatorSpec(terms)
    a = differential_symbol(spec, grids[spec.arity])
    assert a._real_even
    for run in (
        lambda: spectral_apply(a, fam, _real_datum(fam.space_grid)),
        lambda: dense_from_diagonal(fam, a),
        lambda: families._transform_pair(fam, a, False),
    ):
        with pytest.raises(ArityMismatch):
            run()


def test_a_non_finite_half_symbol_falls_back_to_the_complex_pair():
    # 1 + 1e308 p^2 overflows off |p| <= 1: the complex pair names the node
    g = make_grid(1, [64], [4.0])
    fam = FourierFamily(g)
    a = differential_symbol(DifferentialOperatorSpec({(0,): 1.0, (2,): -1e308}), fam.index_grid)
    assert a._real_even
    with pytest.raises(NonFiniteSymbol) as got:
        families._transform_pair(fam, a, True)
    with pytest.raises(NonFiniteSymbol) as want:
        a.sample_finite(fam.index_grid)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the apply and its callers on the half pair


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_real_apply_is_bitwise_the_half_reference(name):
    g = _grid(name)
    fam = FourierFamily(g)
    a = _helmholtz(fam)
    u = _real_datum(g)
    got = spectral_apply(a, fam, u).samples
    want = naive.literal_apply_half(fam, a, u)
    # a real image: every imaginary part +0.0
    assert same_words(got, want.astype(np.complex128))
    # the reference is the complex composition to rounding
    rows = u.samples[np.newaxis]
    full = fam.superpose_rows(a.sample(fam.index_grid) * fam.coordinates_rows(rows))[0]
    assert _relative(want, full) <= 1e-14


@pytest.mark.parametrize("name", ["1d-10", "2d-12x10"])
def test_dense_oracle_of_a_real_even_symbol_is_real_and_the_column_loop(name):
    g = _grid(name)
    fam = FourierFamily(g)
    a = _helmholtz(fam)
    matrix = dense_from_diagonal(fam, a).matrix
    assert same_words(matrix.imag, np.zeros((g.size, g.size)))
    assert same_words(matrix, naive.dense_from_diagonal_columns(fam, a))


def test_expand_writes_a_real_expansion_and_the_full_integrand(tmp_path):
    g = _grid("1d-64")
    fam = FourierFamily(g)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "grid": {"dim": 1, "counts": list(g.counts), "half_extents": list(g.half_extents)},
        "operator": {"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}},
        "datum": {"kind": "gaussian", "sigma": 1.0, "center": [0.5]},
        "output": {"directory": str(tmp_path / "out")},
    }))
    assert main(["expand", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "expansion.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and all(row[-1] == "0.0" for row in rows)
    # the integrand a * c, spread from the half spectrum, on the whole grid
    d = sample_function(g, lambda x: np.exp(-((x - 0.5) ** 2) / 2.0))
    a = _helmholtz(fam)
    want = a.sample(fam.index_grid) * fam.coordinates_rows(d.samples[np.newaxis])[0]
    got = naive.read_samples_csv(tmp_path / "out" / "integrand.csv")
    assert got.size == g.size
    assert _relative(got, want) <= 1e-14


# ---------------------------------------------------------------------------
# real Green members


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("symbol", ["1+p^2", "1-laplacian"])
def test_green_members_of_a_real_even_symbol_are_real(dim, symbol):
    g = make_grid(dim, [16] * dim, [3.0] * dim)
    lam = FourierFamily(g)
    l = _one_plus_p2(dim) if symbol == "1+p^2" else _helmholtz(lam)
    assert l._real_even
    for build in (green_family, green_family_divided):
        result = build(lam, l, left_inverse_family(lam))
        assert result.route == "reciprocal"
        for k in range(g.size):
            samples = result.family.member(g.point_at(k)).samples
            assert same_words(samples.imag, np.zeros(g.size)), k
        assert result.family.matrix().dtype == np.float64
        assert same_words(result.family.matrix(), naive.dense_green_half(lam, l))


@pytest.mark.parametrize("name", ["1d-10", "2d-12x10", "3d-4x6x8"])
def test_half_green_reference_is_the_complex_one_to_rounding(name):
    g = _grid(name)
    lam = FourierFamily(g)
    l = _helmholtz(lam)
    table, _ = naive.dense_green(lam, l)
    half = naive.dense_green_half(lam, l)
    assert _relative(half, table) <= 1e-14
    assert same_words(green_family(lam, l, left_inverse_family(lam)).family.matrix(), half)


def test_cli_green_writes_an_im_column_of_zeros(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "grid": {"dim": 2, "counts": [16, 12], "half_extents": [4.0, 3.0]},
        "operator": {"type": "differential", "coefficients": {"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}},
        "output": {"directory": str(tmp_path / "out")},
    }))
    assert main(["green", "--config", str(cfg), "--index", "-1.5,0.5", "--index", "0,0"]) == 0
    for name in ("green_000.csv", "green_001.csv"):
        with open(tmp_path / "out" / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "im" and len(rows) == 16 * 12 + 1
        assert all(row[-1] == "0.0" for row in rows[1:])


def _complex_symbol(dim):
    return SymbolFunction(dim, lambda *p: 2.0 + 0.5j * p[0] + sum(x**2 for x in p), "complex")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("pair", ["half", "complex"])
def test_green_members_are_bitwise_the_solve_of_a_point_mass_on_both_pairs(dim, pair):
    g = make_grid(dim, [12] * dim, [2.5] * dim)
    lam = FourierFamily(g)
    l = _helmholtz(lam) if pair == "half" else _complex_symbol(dim)
    # the divided route too: both symbols are at most 2 in magnitude at p = 0
    policies = (None, DivisionPolicy(zero_threshold=2.0 + 1e-9, residual_threshold=1.0))
    for policy in policies:
        builds = (green_family_divided,) if policy else (green_family, green_family_divided)
        for build in builds:
            result = build(lam, l, left_inverse_family(lam), policy)
            assert result.route == ("divided" if policy else "reciprocal")
            for k in (0, g.size // 3, g.size - 1):
                p = g.point_at(k)
                direct = solve(lam, l, delta_distribution(g, p), policy).solution
                assert same_words(result.family.member(p).samples, direct.samples), (build, k)


# ---------------------------------------------------------------------------
# symbols sampled with the finiteness check

OVERFLOWING = SymbolFunction(1, lambda x: np.exp(1e3 * x), "exp(1e3 x)")


def test_symbol_sites_raise_non_finite_symbol_naming_the_node():
    g = make_grid(1, [8], [4.0])
    fam = FourierFamily(g)
    u = sample_function(g, np.cos)
    composed = spectrum_identity().compose(OVERFLOWING)
    cases = (
        (lambda: scale_family(OVERFLOWING, fam), OVERFLOWING, fam.index_grid),
        (lambda: MultiplicationOperator(OVERFLOWING).apply(u), OVERFLOWING, g),
        (lambda: spectral_product(IdentityOperator(), DiracFamily(g)).evaluate(OVERFLOWING).apply(u),
         OVERFLOWING, g),
        (lambda: eigenspectrum_measure(u, fam, OVERFLOWING).evaluate(spectrum_identity()),
         composed, fam.index_grid),
    )
    for run, symbol, grid in cases:
        with pytest.raises(NonFiniteSymbol) as got:
            run()
        with pytest.raises(NonFiniteSymbol) as want:
            symbol.sample_finite(grid)
        assert str(got.value) == str(want.value)
        assert "at node (" in str(got.value)


def test_symbol_sites_keep_their_bits_for_finite_symbols():
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    f = SymbolFunction(1, lambda x: 1.0 + 0.5j * x - x**2, "f")
    u = GridDistribution(g, np.random.default_rng(4).standard_normal(g.size) * (1 - 0.5j))
    assert same_words(scale_family(f, fam).kernel, f.sample(fam.index_grid)[:, np.newaxis] * fam.matrix())
    assert same_words(MultiplicationOperator(f).apply(u).samples, f.sample(g) * u.samples)
    dirac = DiracFamily(g)
    product = spectral_product(IdentityOperator(), dirac).evaluate(f).apply(u)
    assert same_words(product.samples, dirac.superpose_rows((f.sample(g) * u.samples)[np.newaxis])[0])
    coords = fam.coordinates(u).samples
    got = eigenspectrum_measure(u, fam, f).evaluate(spectrum_identity()).samples
    assert same_words(got, spectrum_identity().compose(f).sample(fam.index_grid) * coords)
    assert math.isfinite(float(np.max(np.abs(got))))
