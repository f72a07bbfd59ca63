"""The solve core against the literal definitions, bit for bit, and its cost.

``solve`` samples the symbol once and runs two transforms on arrays:
analyse ``d``, synthesise ``u``; the first read of the residual analyses
``u``.  These tests pin that its solution and quotient are the same bits
(signed zeros included) as the step-by-step composition of the public
functions and as ``naive.literal_solve``, and count what one call and
each read do.  The residual is
measured on coefficients by the discrete Parseval identity, so it agrees
with ``literal_solve``'s spatial residual to the rounding of the synthesis
it saves; :func:`test_coefficient_residual_agrees_with_the_spatial_one`
pins that on both paths.  A real datum with a real, even polynomial symbol
takes the half-spectrum path, with the symbol sampled on the half only,
which agrees with the composition to rounding and is pinned that way.  The
shared cores (the polynomial evaluator, the batched dense oracle) are
pinned the same way against literal copies of the code they replaced.
"""

import collections
import gc
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from schwartzcalc import (
    DiracFamily,
    DifferentialOperatorSpec,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    GridMismatch,
    KernelFamily,
    NonFiniteSamples,
    NonFiniteSymbol,
    NotDivisible,
    SolveResult,
    SymbolFunction,
    coordinates,
    delta_distribution,
    dense_from_diagonal,
    differential_symbol,
    divide,
    green_family,
    l2_norm,
    left_inverse_family,
    make_grid,
    sample_function,
    solve,
    solve_pde,
    spectral_apply,
    superpose,
)

from schwartzcalc import families
from schwartzcalc import grid as grid_module
from schwartzcalc import solver as solver_module
from schwartzcalc.cli import _parse_symbol, main

from naive import (
    config_polynomial_evaluator,
    dense_from_diagonal_columns,
    dense_green,
    differential_evaluator,
    exact_quotient,
    literal_solve,
    literal_solve_half,
    to_half,
)

HELMHOLTZ_1D = DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
HELMHOLTZ_2D = DifferentialOperatorSpec({(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
# even in total degree but odd on each axis: its symbol 2 - p1 p2 changes
# sign at the mirror of a node on a Nyquist line, so it is not real and even
MIXED_2D = DifferentialOperatorSpec({(1, 1): 1.0, (0, 0): 2.0})
# even on every axis, so real and even: 1 + p1^2 p2^2
EVEN_MIXED_2D = DifferentialOperatorSpec({(0, 0): 1.0, (2, 2): 1.0})


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def residual_agrees(r, r_spatial):
    """The coefficient residual against the spatial one: equal to the
    rounding of the synthesis the solve no longer makes."""
    return abs(r - r_spatial) <= max(1e-6 * r_spatial, 1e-15)


def _cases():
    """Cases on the complex path: complex data, or an operator that is not
    real and even.  ``1d-helmholtz`` and ``2d-delta`` are the complex twins
    of the real data in :func:`_real_cases`; ``2d-mixed-delta`` is a real
    point mass whose mixed-derivative operator keeps the complex path."""
    g1 = make_grid(1, [256], [8.0])
    g2 = make_grid(2, [32, 16], [6.0, 4.0])
    pi1 = make_grid(1, [64], [math.pi])
    pi2 = make_grid(2, [16, 16], [math.pi, math.pi])
    g3 = make_grid(2, [16, 16], [4.0, 4.0])
    return {
        "1d-helmholtz": (
            HELMHOLTZ_1D,
            sample_function(g1, lambda x: np.exp(-((x - 0.5) ** 2)) * (1 + 0.25j * x)),
        ),
        "2d-helmholtz": (
            HELMHOLTZ_2D,
            sample_function(g2, lambda x, y: np.exp(-(x**2 + 2.0 * y**2) / 3.0) * (1 + 0.5j * y)),
        ),
        "1d-zero-set": (DifferentialOperatorSpec({(1,): 1.0}), sample_function(pi1, np.sin)),
        "2d-zero-set": (
            DifferentialOperatorSpec({(1, 0): 1.0, (0, 1): 2.0}),
            sample_function(pi2, lambda x, y: np.sin(x + 2.0 * y)),
        ),
        "2d-delta": (HELMHOLTZ_2D, 1j * delta_distribution(g3, (0.5, -1.0))),
        "2d-mixed-delta": (MIXED_2D, delta_distribution(g3, (0.5, -1.0))),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_solve_pde_is_bitwise_the_literal_composition(name):
    spec, d = _cases()[name]
    fam = FourierFamily(d.grid)
    a = differential_symbol(spec, fam.index_grid)
    result = solve_pde(spec, d)
    again = solve(fam, a, d)
    # the composition of the public functions
    q = divide(coordinates(d, fam), a)
    u = superpose(q, fam)
    residual = l2_norm(spectral_apply(a, fam, u) - d) / l2_norm(d)
    # the masked quotient and the residual written out step by step
    u_lit, q_lit, residual_lit = literal_solve(fam, a, d)
    for r in (result, again):
        for expected_u, expected_q, expected_r in ((u, q, residual), (u_lit, q_lit, residual_lit)):
            assert same_bits(r.solution.samples, expected_u.samples)
            assert same_bits(r.quotient.samples, expected_q.samples)
            assert residual_agrees(r.residual, expected_r)
    assert result.residual <= 1e-12


def _real_cases():
    """Real data with the real, even Helmholtz symbol: the half-spectrum path.
    The 1-d boxes keep ``dx = 1/4``, so that the symbol's range, and with it
    the rounding of the residual, is the same at every size."""
    cases = {}
    for n in (64, 1024, 1 << 16):
        g = make_grid(1, [n], [n / 8])
        width = n / 32
        cases[f"1d-{n}"] = (
            HELMHOLTZ_1D,
            sample_function(g, lambda x: np.exp(-(((x - 0.5) / width) ** 2)) * np.cos(x)),
        )
    for counts in ([16, 16], [32, 16]):
        g = make_grid(2, counts, [4.0, 4.0])
        tag = "x".join(map(str, counts))
        cases[f"2d-{tag}"] = (
            HELMHOLTZ_2D,
            sample_function(g, lambda x, y: np.exp(-((x - 0.5) ** 2) - 2.0 * (y + 1.0) ** 2)),
        )
        cases[f"2d-delta-{tag}"] = (HELMHOLTZ_2D, delta_distribution(g, (0.5, -1.0)))
    # a point mass has coefficients of full size on the Nyquist lines; dx = 1
    # keeps 1 + p1^2 p2^2 below 1 + pi^4, near the Helmholtz symbols' range
    g = make_grid(2, [16, 16], [8.0, 8.0])
    cases["2d-even-mixed-delta-16x16"] = (EVEN_MIXED_2D, delta_distribution(g, (1.0, -2.0)))
    return cases


def _relative(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


@pytest.mark.parametrize("name", sorted(_real_cases()))
def test_real_path_agrees_with_the_literal_composition(name):
    spec, d = _real_cases()[name]
    fam = FourierFamily(d.grid)
    a = differential_symbol(spec, fam.index_grid)
    result = solve_pde(spec, d)
    q = divide(coordinates(d, fam), a)
    u = superpose(q, fam)
    residual = l2_norm(spectral_apply(a, fam, u) - d) / l2_norm(d)
    u_lit, q_lit, residual_lit = literal_solve(fam, a, d)
    for expected_u, expected_q, expected_r in ((u, q, residual), (u_lit, q_lit, residual_lit)):
        assert _relative(result.solution.samples, expected_u.samples) <= 1e-14
        assert _relative(result.quotient.samples, expected_q.samples) <= 1e-14
        assert abs(result.residual - expected_r) <= 1e-14
    assert result.residual <= 1e-13
    # the solution is real: every imaginary part is +0.0
    assert same_bits(result.solution.samples.imag, np.zeros(d.grid.size))
    assert result.quotient.samples.dtype == np.complex128
    assert result.quotient.grid == fam.index_grid


def test_the_path_is_chosen_from_exact_facts():
    spec, d = _real_cases()["1d-64"]
    fam = FourierFamily(d.grid)
    # a lambda symbol, or one imaginary part of 5e-324, keeps the complex path
    lam = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    nudged = d.samples.copy()
    nudged[7] += 5e-324j
    helmholtz = differential_symbol(spec, fam.index_grid)
    for a, datum in ((lam, d), (helmholtz, GridDistribution(d.grid, nudged))):
        result = solve(fam, a, datum)
        u_lit, q_lit, residual_lit = literal_solve(fam, a, datum)
        assert same_bits(result.solution.samples, u_lit.samples)
        assert same_bits(result.quotient.samples, q_lit.samples)
        assert residual_agrees(result.residual, residual_lit)
    # the terms decide: real coefficients (after (-i)^|j|) and even degrees
    assert helmholtz._real_even and not lam._real_even
    odd = DifferentialOperatorSpec({(0,): 1.0, (1,): 1.0})
    assert not differential_symbol(odd, fam.index_grid)._real_even
    imaginary = DifferentialOperatorSpec({(2,): 1j})
    assert not differential_symbol(imaginary, fam.index_grid)._real_even
    # even in total degree is not enough: every axis's degree must be even
    g2 = make_grid(2, [4, 4], [1.0, 1.0])
    assert not differential_symbol(MIXED_2D, g2)._real_even
    assert differential_symbol(EVEN_MIXED_2D, g2)._real_even
    for im, real_even in ((0.5, False), (0.0, True)):
        section = {"name": "polynomial", "terms": {"0": 2.0, "2": [1.0, im]}}
        assert _parse_symbol(section, 1)._real_even is real_even
    for key, real_even in (("1,1", False), ("2,2", True)):
        section = {"name": "polynomial", "terms": {"0,0": 2.0, key: 1.0}}
        assert _parse_symbol(section, 2)._real_even is real_even


@pytest.mark.parametrize("dim", [1, 2])
def test_real_path_names_the_node_the_complex_path_names(dim):
    # -Laplacian vanishes at p = 0, where a Gaussian has its largest coefficient
    g = make_grid(dim, [16] * dim, [4.0] * dim)
    spec = DifferentialOperatorSpec({(2,) + (0,) * (dim - 1): -1.0})
    d = sample_function(g, lambda *xs: np.exp(-sum((x - 0.5) ** 2 for x in xs)))
    with pytest.raises(NotDivisible) as real:
        solve_pde(spec, d)
    with pytest.raises(NotDivisible) as plain:
        solve_pde(spec, d + GridDistribution(g, np.full(g.size, 1e-300j)))
    assert real.value.worst_point == plain.value.worst_point
    assert real.value.worst_index == plain.value.worst_index
    assert "where the symbol magnitude is at or below" in str(real.value)
    assert abs(real.value.magnitude - plain.value.magnitude) <= 1e-14 * plain.value.magnitude


def test_zero_set_cases_hold_zero_components():
    # the bit comparison above is only as sharp as its data: the zero-set
    # quotients and the delta's coefficients carry zero components
    for name in ("1d-zero-set", "2d-zero-set", "2d-delta"):
        spec, d = _cases()[name]
        q = solve_pde(spec, d).quotient.samples
        assert np.any(q.view(np.float64) == 0.0), name


# the grids of the residual oracle test: counts and half extents
RESIDUAL_GRIDS = {
    "1d-64": ([64], [8.0]),
    "1d-1024": ([1024], [32.0]),
    "1d-65536": ([1 << 16], [256.0]),
    "2d-16x16": ([16, 16], [4.0, 4.0]),
    "2d-16x12": ([16, 12], [4.0, 3.0]),
    "2d-256x256": ([256, 256], [16.0, 16.0]),
    "3d-8x8x8": ([8, 8, 8], [3.0, 3.0, 3.0]),
}


def _residual_case(grid_name, case):
    """``(spec, datum, takes the half path)`` for one grid and case: a smooth
    real datum under Helmholtz (half path) and under Helmholtz plus an odd
    first derivative (complex path), scaled by 1, 1e-200 or 1e200; and a
    datum with no mass at ``p_0 = 0`` under ``-Laplacian`` (half path) and
    under ``d_0`` (complex path), whose symbols vanish there."""
    counts, extents = RESIDUAL_GRIDS[grid_name]
    g = make_grid(len(counts), counts, extents)
    dim = g.dim
    unit = (0,) * dim
    second = [tuple(2 if i == k else 0 for i in range(dim)) for k in range(dim)]
    first = (1,) + (0,) * (dim - 1)
    helmholtz = {unit: 1.0, **{idx: -1.0 for idx in second}}
    kind, _, scale = case.partition("*")
    if kind.endswith("zero-set"):
        spec = {idx: -1.0 for idx in second} if kind == "real-zero-set" else {first: 1.0}
        width = [L / 3 for L in extents]
        d = sample_function(g, lambda *xs: np.sin(np.pi * xs[0] / extents[0]) * np.exp(
            -sum((x / w) ** 2 for x, w in zip(xs[1:], width[1:]))))
    else:
        spec = helmholtz if kind == "real" else {**helmholtz, first: 0.5}
        width = [L / 4 for L in extents]
        d = sample_function(g, lambda *xs: np.cos(xs[0]) * np.exp(
            -sum(((x - 0.3) / w) ** 2 for x, w in zip(xs, width))))
        d = float(scale or 1.0) * d
    return DifferentialOperatorSpec(spec), d, kind.startswith("real")


RESIDUAL_CASES = ["real", "real*1e-200", "real*1e200", "complex", "complex*1e-200",
                  "complex*1e200", "real-zero-set", "complex-zero-set"]


@pytest.mark.parametrize("case", RESIDUAL_CASES)
@pytest.mark.parametrize("grid_name", sorted(RESIDUAL_GRIDS))
def test_coefficient_residual_agrees_with_the_spatial_one(monkeypatch, grid_name, case):
    """The residual by Parseval against the residual on the samples, made
    with the same transforms: ``literal_solve`` on the complex path,
    ``literal_solve_half`` on the half path.  A residual near rounding is
    the rounding of the transforms that made it, so the two paths' residuals
    agree with each other only to that, not to 1e-6."""
    spec, d, half = _residual_case(grid_name, case)
    calls = collections.Counter()
    _count_calls(monkeypatch, families, "_sample_half", calls)
    result = solve_pde(spec, d)
    assert calls["_sample_half"] == (1 if half else 0)
    fam = FourierFamily(d.grid)
    a = differential_symbol(spec, fam.index_grid)
    if half:
        u, q_half, residual_lit = literal_solve_half(fam, a, d)
        u, q = u.astype(complex), families._from_half(q_half, d.grid.counts)
    else:
        u, q, residual_lit = (getattr(x, "samples", x) for x in literal_solve(fam, a, d))
    # the same solution and quotient, so only the residual's last step differs
    assert same_bits(result.solution.samples, u)
    assert same_bits(result.quotient.samples, q)
    assert 0.0 < residual_lit < 1e-6
    assert residual_agrees(result.residual, residual_lit), (result.residual, residual_lit)


def _reachable_arrays(obj):
    """Every numpy array reachable from ``obj`` through references, types
    and modules left out."""
    seen, stack, arrays = set(), [obj], []
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, type(math))):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        else:
            stack.extend(gc.get_referents(item))
    return arrays


def _quotient_cases():
    """``(spec, datum, takes the half pair)``: each pair, with and without a
    zero set."""
    cases = {}
    for name in ("1d-helmholtz", "1d-zero-set", "2d-zero-set"):
        spec, d = _cases()[name]
        cases[name] = (spec, d, False)
    cases["1d-1024-real"] = _real_cases()["1d-1024"] + (True,)
    for grid_name in ("1d-64", "2d-16x12"):
        spec, d, _ = _residual_case(grid_name, "real-zero-set")
        cases[f"{grid_name}-real-zero-set"] = (spec, d, True)
    return cases


def _datum_coefficients(spec, d):
    """The datum's coefficients as the solve makes them, on its pair."""
    fam = FourierFamily(d.grid)
    pair = families._transform_pair(fam, differential_symbol(spec, fam.index_grid), not d.samples.imag.any())
    return pair.analyse(d.samples[np.newaxis])[0]


@pytest.mark.parametrize("name", sorted(_quotient_cases()))
def test_quotient_is_built_when_first_read(name):
    spec, d, half = _quotient_cases()[name]
    # the literal quotient: literal_solve's, or literal_solve_half's spread
    fam = FourierFamily(d.grid)
    a = differential_symbol(spec, fam.index_grid)
    if half:
        expected = families._from_half(literal_solve_half(fam, a, d)[1], d.grid.counts)
    else:
        expected = literal_solve(fam, a, d)[1].samples
    d_v = _datum_coefficients(spec, d)
    residual = solve_pde(spec, d).residual
    for first, second in (("quotient", "residual"), ("residual", "quotient")):
        result = solve_pde(spec, d)
        # until read, the result holds the datum's coefficients: on the half
        # pair a half spectrum, which nothing else in the result has the size of
        before = _reachable_arrays(result)
        assert any(x.size != d.grid.size for x in before) is half
        assert any(same_bits(x, d_v) for x in before)
        # but not the datum: on the Fourier family the residual needs none
        assert not any(np.shares_memory(x, d.samples) for x in before)
        value = getattr(result, first)
        assert getattr(result, first) is value
        # after one read it still holds them, for the other field
        assert any(same_bits(x, d_v) for x in _reachable_arrays(result))
        getattr(result, second)
        assert same_bits(result.quotient.samples, expected)
        assert same_bits(result.residual, residual)
        # after both reads it holds the two distributions and nothing else
        after = _reachable_arrays(result)
        assert len(after) == 2
        assert {id(x) for x in after} == {id(result.solution.samples), id(result.quotient.samples)}


def _concurrent_first_reads(result, name):
    """What eight threads reading ``result``'s field ``name`` at once got."""
    start = threading.Barrier(8)
    seen = []

    def read():
        start.wait(timeout=10)
        seen.append(getattr(result, name))

    threads = [threading.Thread(target=read) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    return seen


def test_concurrent_first_reads_build_one_quotient():
    # more readers than cores and a short switch interval (numpy may release
    # the interpreter lock in the division): every reader gets one distribution
    spec, d = _real_cases()["1d-1024"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            seen = _concurrent_first_reads(solve_pde(spec, d), "quotient")
            assert all(q is seen[0] for q in seen)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_first_reads_build_one_residual(monkeypatch):
    # every reader gets the one float, and one analysis of u runs
    spec, d = _real_cases()["1d-1024"]
    expected = solve_pde(spec, d).residual
    calls = collections.Counter()
    _count_calls(monkeypatch, families, "_fourier_analysis_real", calls)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            result = solve_pde(spec, d)
            calls.clear()
            seen = _concurrent_first_reads(result, "residual")
            assert all(r is seen[0] for r in seen) and same_bits(seen[0], expected)
            assert calls == {"_fourier_analysis_real": 1}
    finally:
        sys.setswitchinterval(interval)


def test_solve_result_takes_a_quotient_distribution():
    g = make_grid(1, [16], [2.0])
    u = sample_function(g, np.cos)
    q = FourierFamily(g).coordinates(u)
    for result in (SolveResult(u, q, 0.25), SolveResult(solution=u, quotient=q, residual=0.25)):
        assert result.solution is u and result.quotient is q and result.residual == 0.25
        with pytest.raises(AttributeError):
            result.residual = 0.5


@pytest.mark.parametrize("complex_datum", [False, True])
def test_overflowing_quotient_is_raised_by_the_solve(monkeypatch, complex_datum):
    # the symbol 1e-300 (1 + p^2) stays above its zero threshold
    # 1e-12 max|a|, and 1e10 / 1e-300 overflows: the solve raises before it
    # synthesises, on either pair, not a later read of the quotient
    g = make_grid(1, [64], [3.0])
    spec = DifferentialOperatorSpec({(0,): 1e-300, (2,): -1e-300})
    d = sample_function(g, lambda x: 1e10 * np.exp(-(x**2)))
    if complex_datum:
        d = d + GridDistribution(g, np.full(g.size, 1e-300j))
    calls = collections.Counter()
    _count_calls(monkeypatch, families, "_sample_half", calls)
    _count_calls(monkeypatch, families, "_fourier_synthesis_real", calls)
    _count_calls(monkeypatch, FourierFamily, "superpose_rows", calls)
    with pytest.raises(NonFiniteSamples) as info:
        solve_pde(spec, d)
    assert calls == ({} if complex_datum else {"_sample_half": 1})
    # named: the quotient, at its first non-finite node on the index grid
    # (the complex pair's, where the half pair cannot name one)
    fam = FourierFamily(g)
    with np.errstate(over="ignore"):
        q = coordinates(d, fam).samples / differential_symbol(spec, fam.index_grid).sample(fam.index_grid)
    node = fam.index_grid.point_at(int(np.argmin(np.isfinite(q))))
    assert str(info.value).startswith(f"the quotient at index node {node} is ")
    assert str(info.value).endswith("samples must all be finite")


def test_an_overflowing_division_stays_typed_where_warnings_are_errors():
    # the symbol 1e-320 stays above the zero threshold 5e-324, and every
    # quotient overflows: the division reports its own overflow with the
    # node, so solve, solve_pde and divide raise the typed error, not a
    # RuntimeWarning, whatever the warnings filter says
    g = make_grid(1, [16], [2.0])
    fam = FourierFamily(g)
    spec = DifferentialOperatorSpec({(0,): 1e-320})
    a = differential_symbol(spec, fam.index_grid)
    plain = SymbolFunction(1, lambda p: 1e-320 + 0.0 * p, "1e-320")
    d = sample_function(g, lambda x: np.exp(-(x**2)))
    policy = DivisionPolicy(zero_threshold=5e-324)
    d_v = coordinates(d, fam)
    with np.errstate(over="ignore", invalid="ignore"):
        q = d_v.samples / plain.sample(fam.index_grid)
    node = fam.index_grid.point_at(int(np.argmin(np.isfinite(q))))
    for run in (lambda: solve_pde(spec, d, policy), lambda: solve(fam, a, d, policy),
                lambda: solve(fam, plain, d, policy), lambda: divide(d_v, a, policy)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteSamples) as info:
                run()
        assert str(info.value).startswith(f"the quotient at index node {node} is ")


@pytest.mark.parametrize("complex_datum", [False, True])
def test_overflowing_analysis_names_the_datums_coefficient(complex_datum):
    # the analysis of a constant 1e308 overflows: the quotient is not finite
    # because the datum's coefficients are not, and the error says which
    g = make_grid(1, [64], [3.0])
    # the transforms do not warn of their overflow, so this holds where
    # warnings are errors (the test configuration makes RuntimeWarning one)
    d = GridDistribution(g, np.full(g.size, 1e308 + (1e308j if complex_datum else 0j)))
    with pytest.raises(NonFiniteSamples) as info:
        solve_pde(HELMHOLTZ_1D, d)
    index = FourierFamily(g).index_grid
    assert str(info.value).startswith(f"the datum's coefficient at index node {index.point_at(0)} is ")


HALF_SAMPLER_GRIDS = {
    "1d-1024": ([1024], [1.3]),
    "2d-6x10": ([6, 10], [1.0, 2.0]),
    "2d-16x16": ([16, 16], [4.0, 4.0]),
    "3d-4x6x10": ([4, 6, 10], [1.0, 2.0, 0.5]),
}
# real, even on every axis, with degrees up to 8: 1 - d^2 + d^4/2 - 1e-3 d^6 + ...
HALF_SAMPLER_TERMS = {
    1: {(0,): 1.0, (2,): -1.0, (4,): 0.5, (6,): -1e-3, (8,): 2e-5},
    2: {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0, (2, 2): 0.5, (4, 0): 0.25, (0, 6): -1e-3},
    3: {(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -2.0, (0, 0, 4): 0.5, (2, 2, 2): 1e-2},
}


@pytest.mark.parametrize("name", sorted(HALF_SAMPLER_GRIDS))
def test_half_sampler_is_the_gathered_real_part(name):
    counts, extents = HALF_SAMPLER_GRIDS[name]
    g = make_grid(len(counts), counts, extents)
    index = FourierFamily(g).index_grid
    a = differential_symbol(DifferentialOperatorSpec(HALF_SAMPLER_TERMS[g.dim]), index)
    assert a._real_even
    half = families._sample_half(a, index)
    expected = to_half(a.sample_finite(index).real, g.counts)
    assert half.dtype == np.float64
    assert half.shape == tuple(counts[:-1]) + (counts[-1] // 2 + 1,)
    assert np.array_equal(half, expected)


def test_overflowing_real_even_symbol_raises_the_complex_paths_error():
    # 1 - 1e308 d^2 has the real, even symbol 1 + 1e308 p^2, which overflows
    # off |p| <= 1: the half path falls back, and the complex path names
    # the first non-finite node of the whole grid
    g = make_grid(1, [64], [4.0])
    spec = DifferentialOperatorSpec({(0,): 1.0, (2,): -1e308})
    fam = FourierFamily(g)
    a = differential_symbol(spec, fam.index_grid)
    assert a._real_even
    real = sample_function(g, lambda x: np.exp(-(x**2)))
    messages = []
    # a fixed zero threshold keeps the infinite values off the zero set
    for policy in (None, DivisionPolicy(zero_threshold=1e-3)):
        for datum in (real, real + GridDistribution(g, np.full(g.size, 1e-300j))):
            with pytest.raises(NonFiniteSymbol) as info:
                solve_pde(spec, datum, policy)
            messages.append(str(info.value))
    with pytest.raises(NonFiniteSymbol) as direct:
        a.sample_finite(fam.index_grid)
    assert messages == [str(direct.value)] * 4


def test_solve_on_the_dirac_family_is_bitwise_the_literal_composition():
    g = make_grid(1, [64], [5.0])
    fam = DiracFamily(g)
    a = SymbolFunction(1, lambda x: 1.0 + x**2, "1+x^2")
    d = sample_function(g, lambda x: np.cos(0.6 * x))
    result = solve(fam, a, d)
    u, q, residual = literal_solve(fam, a, d)
    assert same_bits(result.solution.samples, u.samples)
    assert same_bits(result.quotient.samples, q.samples)
    assert same_bits(result.residual, residual)


def test_solve_on_a_kernel_family_measures_the_residual_on_the_samples():
    # members that are not orthogonal have no Parseval constant, so A(u) is
    # synthesised and the residual is the literal one, bit for bit
    g = make_grid(1, [16], [2.0])
    noise = np.random.default_rng(3).standard_normal((g.size, g.size))
    fam = KernelFamily(g, g, np.eye(g.size) / g.cell_volume + 0.1 * noise)
    a = SymbolFunction(1, lambda p: 2.0 + p**2, "2+p^2")
    d = sample_function(g, lambda x: np.exp(-(x**2)))
    result = solve(fam, a, d)
    u, q, residual = literal_solve(fam, a, d)
    assert same_bits(result.solution.samples, u.samples)
    assert same_bits(result.quotient.samples, q.samples)
    assert same_bits(result.residual, residual)


def test_divide_without_zero_set_equals_the_masked_quotient():
    g = make_grid(1, [128], [6.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: 2.0 + 1j * p + p**2, "2+ip+p^2")
    d_v = coordinates(sample_function(g, lambda x: np.exp(-(x**2))), fam)
    a_values = a.sample(fam.index_grid)
    masked = np.where(False, 0.0 + 0.0j, d_v.samples / np.where(False, 1.0, a_values))
    assert same_bits(divide(d_v, a).samples, masked)


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _count_reads(result, calls):
    """The calls the solve made, then those each read added: the first and
    second read of the residual, and the read of the quotient."""
    counts = [dict(calls)]
    for name in ("residual", "residual", "quotient"):
        calls.clear()
        getattr(result, name)
        counts.append(dict(calls))
    return counts


@pytest.mark.parametrize("name", ["1d-helmholtz", "2d-zero-set"])
def test_solve_pde_samples_once_and_makes_three_transforms(monkeypatch, name):
    spec, d = _cases()[name]
    calls = collections.Counter()
    _count_calls(monkeypatch, SymbolFunction, "sample", calls)
    _count_calls(monkeypatch, FourierFamily, "coordinates_rows", calls)
    _count_calls(monkeypatch, FourierFamily, "superpose_rows", calls)
    _count_calls(monkeypatch, GridDistribution, "__init__", calls)
    result = solve_pde(spec, d)
    # the solve analyses d and synthesises u, the first read of the residual
    # analyses u; no copying constructor either: the results are handed over
    assert _count_reads(result, calls) == [
        {"sample": 1, "coordinates_rows": 1, "superpose_rows": 1}, {"coordinates_rows": 1}, {}, {}]


def test_real_path_samples_the_half_once_and_makes_three_half_transforms(monkeypatch):
    spec, d = _real_cases()["1d-1024"]
    calls = collections.Counter()
    _count_calls(monkeypatch, SymbolFunction, "sample", calls)
    _count_calls(monkeypatch, FourierFamily, "coordinates_rows", calls)
    _count_calls(monkeypatch, FourierFamily, "superpose_rows", calls)
    _count_calls(monkeypatch, GridDistribution, "__init__", calls)
    _count_calls(monkeypatch, families, "_sample_half", calls)
    _count_calls(monkeypatch, families, "_fourier_analysis_real", calls)
    _count_calls(monkeypatch, families, "_fourier_synthesis_real", calls)
    result = solve_pde(spec, d)
    # nothing samples the whole index grid
    assert _count_reads(result, calls) == [
        {"_sample_half": 1, "_fourier_analysis_real": 1, "_fourier_synthesis_real": 1},
        {"_fourier_analysis_real": 1}, {}, {}]


def _traced_peak(datum, read_residual=False):
    """``tracemalloc`` peak of one Helmholtz ``solve_pde`` on ``datum`` (1-d,
    over [-40, 40)), building its ``GridDistribution`` included, and then of
    the first read of its residual if ``read_residual``, counted in complex
    arrays of ``16 N`` bytes."""
    g = make_grid(1, [datum.size], [40.0])
    solve_pde(HELMHOLTZ_1D, GridDistribution(g, datum)).residual  # warm-up
    tracemalloc.start()
    try:
        result = solve_pde(HELMHOLTZ_1D, GridDistribution(g, datum))
        if read_residual:
            result.residual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * datum.size)


def test_solve_pde_traced_peak_stays_below_five_and_a_half_arrays():
    """The peak of a complex datum at 2^16 nodes, and of the solve and then
    the first read of its residual.

    It was 7.0 arrays (112 MiB at 2^20) while the transforms shifted by
    copies and ``GridDistribution`` copied its input twice, 6.6 while the
    analysis built a half-size ``±1`` table and 6.5 while the solve
    analysed ``u`` itself; it is 5.0 now.  The peak is the synthesis of
    ``u``: the datum, the symbol samples, the datum's coefficients and the
    quotient stay alive beside the solution.  The read of the residual
    holds less: the datum is gone.
    """
    x = make_grid(1, [1 << 16], [40.0]).axis_points(0)
    for read_residual in (False, True):
        peak = _traced_peak(np.sin(3.0 * x) + 0.5j * np.cos(x), read_residual)
        assert peak < 5.5, f"peak {peak:.2f} arrays"


def test_real_path_traced_peak_stays_below_three_and_a_half_arrays():
    """The peak of a real datum at 2^16 nodes, and of the solve and then the
    first read of its residual: 4.6 arrays while the symbol was sampled on
    the whole grid and ``A(u)`` synthesised, 3.6 while the solve spread the
    quotient over the whole grid beside ``±1`` tables and a second half
    spectrum; 3.25 now.  The solve works in one half spectrum beside the
    datum's coefficients; the peak is its end, where the datum, the half
    spectra of the symbol and of the datum's coefficients (held for the
    quotient and the residual) and the real solution stay alive beside the
    solution's complex copy."""
    x = make_grid(1, [1 << 16], [40.0]).axis_points(0)
    for read_residual in (False, True):
        peak = _traced_peak(np.sin(3.0 * x), read_residual)
        assert peak < 3.5, f"peak {peak:.2f} arrays"


def _peak_per_byte(nbytes, run):
    """``tracemalloc`` peak of ``run()``, after one untraced call, per byte
    of ``nbytes``."""
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / nbytes


def test_half_sample_peaks_at_twice_its_result():
    """A 1-d half sample at 2^16 nodes peaks at its nodes, made in one
    ``float64`` buffer, and the output the polynomial is evaluated in (the
    Helmholtz symbol has one term that is not constant, so no scratch).
    It was 4.0 results while the nodes came from integer node numbers
    through two array expressions and the sum was made from zeros with a
    new array per power and per product."""
    index = FourierFamily(make_grid(1, [1 << 16], [40.0])).index_grid
    a = differential_symbol(HELMHOLTZ_1D, index)
    size = families._sample_half(a, index).nbytes
    peak = _peak_per_byte(size, lambda: families._sample_half(a, index))
    assert peak < 2.05, f"peak {peak:.3f} results"


def test_zero_set_of_a_real_symbol_off_the_threshold_makes_no_array():
    """A real symbol whose least value is above the zero threshold: the
    threshold and the empty set come from its least and largest values.  It
    was 2.0 symbols (``|a|`` and its mask) at 2^16 nodes."""
    index = FourierFamily(make_grid(1, [1 << 16], [40.0])).index_grid
    half = families._sample_half(differential_symbol(HELMHOLTZ_1D, index), index)
    assert solver_module._zero_set(half, DivisionPolicy()) == (1e-12 * np.max(half), None, None)
    peak = _peak_per_byte(half.nbytes, lambda: solver_module._zero_set(half, DivisionPolicy()))
    assert peak < 0.05, f"peak {peak:.3f} symbols"


@pytest.mark.parametrize("values", [
    [1.0, 2.0, 3.0], [-3.0, -2.0, -1.0], [-1.0, 0.5, 2.0], [-1.0, 1e-13, 2.0],
    [-1.0, -0.0, 2.0], [1e-13, 1.0, 2.0], [-2.0, -1.0, -1e-13], [0.0, 0.0, 0.0],
])
@pytest.mark.parametrize("threshold", [None, 0.75])
def test_zero_set_is_the_rule_on_the_magnitudes(values, threshold):
    """On real and complex symbols, ``_zero_set`` is the rule written on
    ``|a|``: the policy's threshold of ``a``, and the mask ``|a| <= eps``,
    ``None`` where it holds nowhere; signs, signed zeros and a threshold
    of the policy's own included."""
    policy = DivisionPolicy(zero_threshold=threshold)
    for a in (np.array(values), np.array(values) * (1 + 1j)):
        eps = policy.resolve_zero_threshold(a)
        mask = np.abs(a) <= eps
        got_eps, got_mask, huge = solver_module._zero_set(a, policy)
        assert same_bits(got_eps, eps)
        assert (got_mask is None) if not mask.any() else np.array_equal(got_mask, mask)
        assert huge is None


@pytest.mark.parametrize("complex_datum", [False, True])
def test_the_quotient_is_scanned_for_finiteness_once(monkeypatch, complex_datum):
    """The division scans its quotient and names a node that is not finite;
    ``divide`` and the first read of ``SolveResult.quotient``, the same
    division again, wrap it with no second scan.  The solve scans only its
    solution."""
    g = make_grid(1, [64], [3.0])
    d = GridDistribution(g, np.exp(-g.axis_points(0) ** 2) * (1 + 1j if complex_datum else 1))
    fam = FourierFamily(g)
    d_v, a = coordinates(d, fam), differential_symbol(HELMHOLTZ_1D, fam.index_grid)
    calls = collections.Counter()
    _count_calls(monkeypatch, grid_module, "_check_finite", calls)
    result = solve_pde(HELMHOLTZ_1D, d)
    assert calls == {"_check_finite": 1}
    calls.clear()
    result.quotient
    divide(d_v, a)
    assert calls == {}


# p^400 overflows on the dual grid of 1024 nodes over [-1, 1): |p| <= 512 pi
OVERFLOWING = DifferentialOperatorSpec({(400,): 1.0})


def test_overflowing_symbol_is_a_typed_error_not_a_false_zero_set():
    g = make_grid(1, [1024], [1.0])
    d = sample_function(g, lambda x: np.exp(-10.0 * x**2))
    for policy in (None, DivisionPolicy(zero_threshold=1e-3)):
        with pytest.raises(NonFiniteSymbol) as info:
            solve_pde(OVERFLOWING, d, policy)
        assert "not finite" in str(info.value)
    # a ValueError too, the type non-finite samples used to surface as
    assert issubclass(NonFiniteSymbol, ValueError)
    fam = FourierFamily(g)
    a = differential_symbol(OVERFLOWING, fam.index_grid)
    with pytest.raises(NonFiniteSymbol):
        spectral_apply(a, fam, d)
    with pytest.raises(NonFiniteSymbol):
        green_family(fam, a, left_inverse_family(fam))


def test_divide_names_the_first_non_finite_node():
    g = make_grid(1, [64], [math.pi])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: np.where(p == 0.0, np.nan, 1.0 + p**2), "nan at 0")
    d_v = coordinates(sample_function(g, np.cos), fam)
    with pytest.raises(NonFiniteSymbol) as info:
        divide(d_v, a)
    assert "(0.0,)" in str(info.value)
    # the same datum divides by a finite symbol
    divide(d_v, SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2"))


TOP = np.finfo(float).max


@pytest.mark.parametrize("a", [
    TOP, -TOP, 1.5e308, 2.0**1021, 3.0,
    1e308 * (1 + 1j), 1.5e308 * (1 - 1j), TOP * np.exp(0.3j), 2.0**1023 * (1 + 0.5j), 3.0 - 1e300j,
], ids=["top", "-top", "1.5e308", "2^1021", "3", "1e308(1+i)", "1.5e308(1-i)", "top-e^0.3i",
        "2^1023(1+0.5i)", "3-1e300i"])
def test_quotient_near_the_top_of_the_range_is_the_exact_one(a):
    """numpy's complex division (Smith's method) overflows to 0 once the
    parts of ``a`` sum past the largest double, and forms a subnormal
    ``1 / a`` past ``2**1022``; the division scales both operands by
    ``2**-4`` where ``|a| >= 2**1021``.  Each quotient is within
    ``max(8u |q|, 8 * 2**-1074)`` of ``naive.exact_quotient``, on data
    from 1e-300 to 1e300, and a real symbol divides as its complex copy does,
    bit for bit."""
    rng = np.random.default_rng(0)
    x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 10.0 ** rng.integers(-300, 301, 64)
    index = make_grid(1, [64], [1.0])
    values = np.full(64, a)
    q = solver_module._divide(x, values, DivisionPolicy(), index)[0]
    exact = exact_quotient(x, values)
    ratio = np.abs(q - exact) / np.maximum(np.abs(exact), 2.0**-1021) / (4.0 * np.finfo(float).eps)
    assert np.all(ratio <= 1.0), float(np.max(ratio))
    if values.dtype == np.float64:
        assert same_bits(q, solver_module._divide(x, values.astype(complex), DivisionPolicy(), index)[0])


# --- the shared cores against literal copies of the code they replaced -----


def same_words(x, y):
    """Bitwise equality read as unsigned words, so signed zeros and NaN
    payloads count."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


POLYNOMIAL_GRIDS = {
    1: make_grid(1, [64], [3.0]),
    2: make_grid(2, [16, 12], [2.0, 3.0]),
    3: make_grid(3, [8, 6, 4], [1.5, 2.0, 2.5]),
}
# every coefficient kind: signed zeros, real, imaginary and complex
POLYNOMIAL_TERMS = {
    1: {(0,): -0.0, (1,): 1.5 - 2.0j, (2,): -1.0, (3,): complex(0.25, -0.0)},
    2: {(0, 0): complex(-0.0, -0.0), (1, 0): 2.0j, (0, 1): -0.5 + 0.75j, (2, 1): -0.0,
        (1, 3): 3.0},
    3: {(0, 0, 0): 1.0 - 1.0j, (1, 0, 2): -0.0j, (0, 2, 0): -2.5, (1, 1, 1): 0.5 + 0.25j},
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_differential_symbol_is_bitwise_the_old_evaluator(dim):
    grid = POLYNOMIAL_GRIDS[dim]
    spec = DifferentialOperatorSpec(POLYNOMIAL_TERMS[dim])
    terms = [(idx, c * (-1j) ** sum(idx)) for idx, c in spec.coeffs.items()]
    old = SymbolFunction(dim, differential_evaluator(terms, dim))
    new = differential_symbol(spec, grid)
    assert same_words(new.sample(grid), old.sample(grid))
    point = grid.point_at(grid.size // 3)
    assert same_words(np.array([new.at(point)]), np.array([old.at(point)]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_config_polynomial_is_bitwise_the_old_evaluator(dim):
    grid = POLYNOMIAL_GRIDS[dim]
    raw = POLYNOMIAL_TERMS[dim]
    terms = [(idx, complex(c)) for idx, c in raw.items()]
    section = {
        "name": "polynomial",
        "terms": {",".join(map(str, idx)): [c.real, c.imag] for idx, c in terms},
    }
    old = SymbolFunction(dim, config_polynomial_evaluator(terms))
    assert same_words(_parse_symbol(section, dim).sample(grid), old.sample(grid))


def _oracle_cases():
    a1 = SymbolFunction(1, lambda p: 1.0 + 0.5j * p - 0.25 * p**2, "complex 1-d")
    a2 = SymbolFunction(2, lambda p, q: 2.0 + 1j * p * q + q**2, "complex 2-d")
    return {
        "fourier-1d-256": (FourierFamily(make_grid(1, [256], [8.0])), a1),
        "fourier-1d-64": (FourierFamily(make_grid(1, [64], [math.pi])), a1),
        "fourier-2d-16x12": (FourierFamily(make_grid(2, [16, 12], [3.0, 2.0])), a2),
        "dirac-1d-64": (DiracFamily(make_grid(1, [64], [5.0])), a1),
    }


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
def test_batched_dense_oracle_is_bitwise_the_column_loop(name):
    v, a = _oracle_cases()[name]
    assert same_words(dense_from_diagonal(v, a).matrix, dense_from_diagonal_columns(v, a))


def test_cli_solve_samples_the_symbol_once(monkeypatch, tmp_path):
    # a real datum and a real, even symbol: the half spectrum only
    calls = collections.Counter()
    _count_calls(monkeypatch, SymbolFunction, "sample", calls)
    _count_calls(monkeypatch, families, "_sample_half", calls)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "grid": {"dim": 1, "counts": [64], "half_extents": [10.0]},
        "operator": {"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}},
        "datum": {"kind": "gaussian", "sigma": 1.5},
        "output": {"directory": str(tmp_path / "out")},
    }))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert calls == {"_sample_half": 1}


def test_green_family_refuses_a_left_inverse_off_the_space_grid():
    g = make_grid(1, [16], [4.0])
    lam = FourierFamily(g)
    l = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    # the product mu . lam is defined (mu lives on lam's index grid), but mu
    # is indexed by a grid other than lam's space grid
    other = make_grid(1, [8], [4.0])
    kernel = np.random.default_rng(0).standard_normal((other.size, g.size)) + 0j
    mu = KernelFamily(other, lam.index_grid, kernel)
    with pytest.raises(GridMismatch):
        green_family(lam, l, mu)


def test_dense_green_residuals_of_a_complex_symbol_keep_their_bits():
    # the Green members divide as mu_p / l and their images scale as
    # l * coords, the apply core's order; for a complex symbol neither
    # x / l against x * (1/l) nor l * x against x * l is bitwise the same
    g = make_grid(1, [32], [5.0])
    lam = DiracFamily(g)
    l = SymbolFunction(1, lambda p: 2.0 + 0.5j * p + (1.0 - 0.3j) * p**2, "complex")
    residuals = green_family(lam, l, left_inverse_family(lam)).weak_residuals
    assert same_words(residuals, dense_green(lam, l)[1])
