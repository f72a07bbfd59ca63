"""Generated problems: the fast paths against the literal definitions.

Hypothesis draws grids (1-, 2- and 3-d, even counts from 4 to 32 per axis,
``N/2`` odd included), polynomial symbols (real and even, or complex with
any degrees) and data (real, complex, point masses).  Each property compares
a library path with the O(N^2) sums of ``naive.py`` within ``eps`` times a
stated scale:

* ``spectral_apply`` and the ``expand`` command: ``max|a| * sum|u|``, the
  bound of the image the sums make term by term;
* ``solve`` and ``solve_pde``: ``sum|d| / min|a|`` off the zero set (the same
  bound for the quotient), or the same typed error;
* Green members: ``1 / (dx^n min|l|)``, the bound of a member.

Two properties are exact: the half-spectrum sampler is bit for bit the
real parts of the whole-grid sample, gathered onto the half; and a real,
even symbol that overflows makes ``solve`` name the node the literal solve
names.  So does a symbol that is not finite at drawn nodes other than node
0, for ``solve``, ``spectral_apply``, ``divide`` and ``green_family``.  A
real, even symbol equals its mirror within a bound derived from the
rounding of the nodes, and configs with keys and values swapped keep the
CLI contract.  Three more are exact: the polynomial evaluator is the sum
from zeros it replaced, bit for bit; a datum built from real samples, known
real without a scan, gives the bits of the same values given as complex;
and the transform pair follows ``not samples.imag.any()``, signed zeros
included.

The factor in front, ``TOL_ULPS * N``, covers the literal sums themselves:
their phases ``p.x`` reach ``pi N / 2``, where ``exp`` is accurate to
about ``N`` ulps.  The strategies are derandomized and keep every grid at
``MAX_NODES`` nodes or fewer, so the suite takes a few seconds.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naive
from test_csv import field_paths
from schwartzcalc import (
    DiracFamily,
    DifferentialOperatorSpec,
    DivisionPolicy,
    FourierFamily,
    GridDistribution,
    NonFiniteSamples,
    NonFiniteSymbol,
    NotDivisible,
    NotInvertible,
    SymbolFunction,
    coordinates,
    delta_distribution,
    differential_symbol,
    divide,
    green_family,
    green_family_divided,
    left_inverse_family,
    make_grid,
    solve,
    solve_pde,
    spectral_apply,
)
from schwartzcalc import cli, families
from schwartzcalc import grid as grid_module
from schwartzcalc import solver as solver_module
from schwartzcalc import spectral as spectral_module
from schwartzcalc.cli import main

EPS = np.finfo(float).eps
#: the literal sums cost N^2 per row
MAX_NODES = 512
#: ulps per node allowed between a fast path and the literal sums
TOL_ULPS = 1.0

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def grids(draw, max_nodes=MAX_NODES, extents=st.floats(0.25, 8.0), dims=st.integers(1, 3)):
    """Even counts from 4 to 32 per axis, at most ``max_nodes`` in all, in
    ``dims`` dimensions, and half extents from ``extents``."""
    dim = draw(dims)
    counts = []
    for axis in range(dim):
        room = max_nodes // math.prod(counts) // 4 ** (dim - axis - 1)
        counts.append(draw(st.sampled_from([n for n in range(4, 33, 2) if n <= room])))
    return make_grid(dim, counts, [draw(extents) for _ in counts])


#: coefficients of either sign, 1/8 to 2 in magnitude
COEFFICIENT = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.125, 2.0)).map(
    lambda pair: pair[0] * pair[1])


@st.composite
def poly_terms(draw, dim, real_even):
    """``{multi-index: coefficient}`` of a polynomial: real coefficients on
    degrees 0 or 2 per axis when ``real_even``, else degrees 0 to 3 and
    complex coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        if real_even:
            idx = tuple(draw(st.sampled_from([0, 2])) for _ in range(dim))
            terms[idx] = complex(draw(COEFFICIENT))
        else:
            idx = tuple(draw(st.integers(0, 3)) for _ in range(dim))
            terms[idx] = complex(draw(COEFFICIENT), draw(COEFFICIENT))
    return terms


def operator_symbol(fam, terms, constant=None):
    """The symbol of the differential operator with these terms, made
    ``(constant + 0i) + ...`` when ``constant`` is given; with real, even
    terms the symbol ``sum c (-i)^|j| p^j`` is real and even.  ``constant=0``
    drops the constant term, so that the symbol vanishes at ``p = 0``."""
    terms = dict(terms)
    unit = (0,) * fam.space_grid.dim
    if constant == 0:
        terms.pop(unit, None)
        terms.setdefault((2,) + unit[1:], -1.0 + 0j)
    elif constant is not None:
        terms[unit] = complex(constant)
    spec = DifferentialOperatorSpec(terms)
    return spec, differential_symbol(spec, fam.index_grid)


def draw_datum(draw, grid, kind):
    if kind == "delta":
        return delta_distribution(grid, grid.point_at(draw(st.integers(0, grid.size - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(grid.size)
    if kind == "complex":
        x = x + 1j * rng.standard_normal(grid.size)
    return GridDistribution(grid, x)


def literal_symbol(terms, index):
    """``sum c p^j`` over the index nodes, monomial by monomial."""
    pts = index.points()
    total = np.zeros(index.size, dtype=np.complex128)
    for idx, c in terms.items():
        total += c * np.prod([pts[:, axis] ** k for axis, k in enumerate(idx)], axis=0)
    return total


def literal_apply(fam, a_values, u):
    coords = naive.naive_fourier_coordinates(u, fam)
    scaled = GridDistribution(fam.index_grid, a_values * coords.samples)
    return naive.naive_superpose(scaled, fam).samples, scaled.samples


def within(got, want, scale, nodes):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return err <= TOL_ULPS * nodes * EPS * scale, (err, scale)


@SETTINGS
@given(grid=grids(), real_even=st.booleans(),
       kind=st.sampled_from(["real", "complex", "delta"]), data=st.data())
def test_spectral_apply_is_the_literal_sum(grid, real_even, kind, data):
    fam = FourierFamily(grid)
    _, a = operator_symbol(fam, data.draw(poly_terms(grid.dim, real_even)))
    assert a._real_even == real_even
    u = draw_datum(data.draw, grid, kind)
    a_values = a.sample(fam.index_grid)
    want, _ = literal_apply(fam, a_values, u)
    scale = float(np.max(np.abs(a_values)) * np.sum(np.abs(u.samples)))
    ok, detail = within(spectral_apply(a, fam, u).samples, want, scale, grid.size)
    assert ok, detail


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(grid=grids(max_nodes=256), real_even=st.booleans(),
       kind=st.sampled_from(["real", "complex", "delta"]), data=st.data())
def test_expand_writes_the_literal_sums(grid, real_even, kind, data):
    """A ``diagonal`` Fourier ``polynomial`` symbol ``sum c p^j`` on a
    ``samples`` datum written exactly (``repr`` of every float)."""
    fam = FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, real_even))
    u = draw_datum(data.draw, grid, kind)
    cfg = {
        "grid": {"dim": grid.dim, "counts": list(grid.counts),
                 "half_extents": list(grid.half_extents)},
        "operator": {"type": "diagonal", "family": "fourier", "symbol": {
            "name": "polynomial",
            "terms": {",".join(map(str, j)): [c.real, c.imag] for j, c in terms.items()},
        }},
    }
    with tempfile.TemporaryDirectory() as tmp:
        naive.write_distribution_csv(os.path.join(tmp, "datum.csv"), u)
        cfg["datum"] = {"kind": "samples", "path": os.path.join(tmp, "datum.csv")}
        cfg["output"] = {"directory": os.path.join(tmp, "out")}
        with open(os.path.join(tmp, "run.json"), "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["expand", "--config", os.path.join(tmp, "run.json")]) == 0
        image = naive.read_samples_csv(os.path.join(tmp, "out", "expansion.csv"))
        integrand = naive.read_samples_csv(os.path.join(tmp, "out", "integrand.csv"))
    a_values = literal_symbol(terms, fam.index_grid)
    want_image, want_integrand = literal_apply(fam, a_values, u)
    scale = float(np.max(np.abs(a_values)) * np.sum(np.abs(u.samples)))
    for got, want in ((image, want_image), (integrand, want_integrand)):
        ok, detail = within(got, want, scale, grid.size)
        assert ok, detail


def literal_divisible(fam, a_values, d, policy):
    """Whether ``d``'s literal coordinates carry no mass above the policy's
    tolerance where ``|a|`` is at or below its zero threshold."""
    mass = np.abs(naive.naive_fourier_coordinates(d, fam).samples)
    zero_mask = np.abs(a_values) <= policy.resolve_zero_threshold(a_values)
    return not np.any(zero_mask & (mass > policy.residual_threshold * np.max(mass)))


@SETTINGS
@given(grid=grids(), real_even=st.booleans(), with_zero=st.booleans(),
       kind=st.sampled_from(["real", "complex", "delta", "projected"]), data=st.data())
def test_solve_is_the_literal_solve_or_the_same_error(grid, real_even, with_zero, kind, data):
    """``with_zero`` drops the constant term, so the symbol vanishes at
    ``p = 0``; a ``projected`` datum has that coefficient taken out.  The
    literal coordinates decide which data are divisible."""
    fam = FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, real_even))
    spec, a = operator_symbol(fam, terms, 0 if with_zero else 8.0)
    d = draw_datum(data.draw, grid, "real" if kind == "projected" else kind)
    if kind == "projected":
        d = GridDistribution(grid, d.samples - np.mean(d.samples))
    policy = DivisionPolicy()
    a_values = a.sample(fam.index_grid)
    if not literal_divisible(fam, a_values, d, policy):
        for run in (lambda: solve_pde(spec, d), lambda: solve(fam, a, d)):
            with pytest.raises(NotDivisible):
                run()
        return
    u_lit, _, _ = naive.literal_solve(fam, a, d, policy)
    magnitudes = np.abs(a_values)
    live = magnitudes[magnitudes > policy.resolve_zero_threshold(a_values)]
    scale = float(np.sum(np.abs(d.samples)) / np.min(live))
    for result in (solve_pde(spec, d), solve(fam, a, d)):
        ok, detail = within(result.solution.samples, u_lit.samples, scale, grid.size)
        assert ok, detail
        # the residual, relative to |d|, within the symbol's condition
        assert result.residual <= TOL_ULPS * grid.size * EPS * np.max(live) / np.min(live)


TOP = np.finfo(float).max


@SETTINGS
@given(grid=grids(dims=st.integers(1, 2)), real_even=st.booleans(), complex_datum=st.booleans(),
       exponent=st.one_of(st.just(math.log10(TOP)), st.sampled_from([-307.0, 300.0, 308.0]),
                          st.floats(-307.0, math.log10(TOP))),
       phase=st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, 3.0]),
                       st.floats(-math.pi, math.pi, allow_subnormal=False)),
       magnitude=st.sampled_from([1.0, 1e150, 1e300]), data=st.data())
def test_residual_is_finite_and_small_or_a_typed_error(
    grid, real_even, complex_datum, exponent, phase, magnitude, data
):
    """``s e^{i phase} (1 + |p|^2)``, plus ``-0.5i p_0`` times that scale
    when not ``real_even``, on data of ``magnitude``: the symbol keeps its
    condition at every scale, so the relative residual stays at rounding
    level.  ``s`` is ``10**exponent``, capped so that ``max|a|`` stays below
    the largest double, which the largest exponents reach.  Near 1e-307 the
    analysis of ``u`` overflows, and the residual is measured again, scaled;
    a solution that itself overflows is a ``NonFiniteSamples``.

    Each quotient of ``divide`` is compared with the exact one
    (``naive.exact_quotient``) as Baudin & Smith (arXiv:1210.4539) judge a
    complex division: normwise relative error in the normal range, absolute
    below it.  Smith's method has no tight published constant; the bound,
    ``8u |q|`` and 8 units of the smallest subnormal, is twice the largest
    error seen over 1,329 draws (3.9u).  Near the top of the range a part of
    ``a`` reaches ``2**1021``, where numpy's complex division alone
    overflows to 0 or loses bits to a subnormal ``1 / a``."""
    fam = FourierFamily(grid)
    top = float(np.max(np.abs(fam.index_grid.points())))
    scale = 10.0 ** min(exponent, math.log10(TOP / (1.0 + grid.dim * top * top + top)))
    unit = (0,) * grid.dim
    turn = complex(math.cos(phase), math.sin(phase))
    terms = {unit: scale * turn}
    for axis in range(grid.dim):
        terms[tuple(2 if a == axis else 0 for a in range(grid.dim))] = -scale * turn
    if not real_even:
        terms[(1,) + unit[1:]] = 0.5 * scale * turn
    spec, a = operator_symbol(fam, terms)
    d = draw_datum(data.draw, grid, "complex" if complex_datum else "real")
    d = GridDistribution(grid, magnitude * (d.samples if complex_datum else d.samples.real))
    for run in (lambda: solve_pde(spec, d), lambda: solve(fam, a, d)):
        try:
            residual = run().residual
        except (NonFiniteSamples, NonFiniteSymbol):
            continue
        assert math.isfinite(residual) and residual <= 1e-10, residual
    try:
        coords = coordinates(d, fam)
        q = divide(coords, a).samples
    except (NonFiniteSamples, NonFiniteSymbol):
        return
    exact = naive.exact_quotient(coords.samples, a.sample(fam.index_grid))
    # |q - exact| <= max(8u |exact|, 8 * 2**-1074), the two meeting at 2**-1021, as a ratio:
    # 8u |exact| would itself round to a subnormal
    with np.errstate(over="ignore"):  # an |exact| or a ratio past the largest double fails as inf
        ratio = np.abs(q - exact) / np.maximum(np.abs(exact), 2.0**-1021) / (4.0 * EPS)
    assert np.all(ratio <= 1.0), float(np.max(ratio))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(grid=grids(max_nodes=256), real_even=st.booleans(), divided=st.booleans(),
       data=st.data())
def test_green_members_are_the_dense_green_table(grid, real_even, divided, data):
    """Reciprocal route: the constant term 8 keeps the symbol off 0 (the
    same ``NotInvertible`` where it does not).  Divided route: the symbol
    vanishes at ``p = 0`` and the loose policy lets every member divide,
    with the quotient 0 there."""
    fam = FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, real_even))
    _, l = operator_symbol(fam, terms, 0 if divided else 8.0)
    policy = DivisionPolicy(residual_threshold=1.0) if divided else DivisionPolicy()
    build = green_family_divided if divided else green_family
    try:
        table, _ = naive.dense_green(fam, l, policy, divided=divided)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            build(fam, l, left_inverse_family(fam), policy)
        return
    result = build(fam, l, left_inverse_family(fam), policy)
    magnitudes = np.abs(l.sample(fam.index_grid))
    zero_mask = magnitudes <= policy.resolve_zero_threshold(magnitudes)
    assert result.route == ("divided" if zero_mask.any() else "reciprocal")
    scale = 1.0 / (grid.cell_volume * float(np.min(magnitudes[~zero_mask])))
    ok, detail = within(result.family.matrix(), table, scale, grid.size)
    assert ok, detail
    k = data.draw(st.integers(0, grid.size - 1))
    ok, detail = within(result.family.member(grid.point_at(k)).samples, table[k], scale, grid.size)
    assert ok, detail


def same_words(x, y):
    """Bitwise equality read as unsigned words, so signed zeros count."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64))


@SETTINGS
@given(grid=grids(extents=st.floats(1e-3, 1e3)), data=st.data())
def test_half_sampler_is_the_gathered_real_part(grid, data):
    """The half sampler computes each node from its node number on the
    half; the reference samples the whole index grid and gathers the real
    parts.  Real, even terms of degree up to 6 per axis, at half extents
    from 1e-3 to 1e3."""
    fam = FourierFamily(grid)
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        idx = tuple(data.draw(st.sampled_from([0, 2, 4, 6])) for _ in range(grid.dim))
        terms[idx] = complex(data.draw(COEFFICIENT))
    _, a = operator_symbol(fam, terms)
    assert a._real_even
    half = families._sample_half(a, fam.index_grid)
    assert same_words(half, naive.to_half(a.sample_finite(fam.index_grid).real, grid.counts))


@SETTINGS
@given(grid=grids(extents=st.floats(0.25, 2.0)), sign=st.sampled_from([-1.0, 1.0]),
       overshoot=st.floats(2.0, 8.0), kind=st.sampled_from(["real", "delta"]),
       fixed=st.booleans(), data=st.data())
def test_overflowing_real_even_symbol_is_the_literal_solves_error(
        grid, sign, overshoot, kind, fixed, data):
    """A real, even symbol with a term that reaches ``overshoot`` times the
    largest float at the corner node ``|p_i| = N_i pi / (2 L_i)``: the half
    pair is refused, and the solve names the node the literal solve names,
    the first non-finite one.  A fixed zero threshold keeps the infinite
    values off the zero set."""
    fam = FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, True))
    degree = tuple(data.draw(st.sampled_from([2, 4])) for _ in range(grid.dim))
    corner = math.prod(p**k for p, k in zip(fam.index_grid.half_extents, degree))
    terms[degree] = complex(sign * overshoot * (np.finfo(float).max / corner))
    spec, a = operator_symbol(fam, terms, 1.0)
    d = draw_datum(data.draw, grid, kind)
    policy = DivisionPolicy(zero_threshold=1e-3) if fixed else DivisionPolicy()
    with pytest.raises(NonFiniteSymbol) as literal:
        naive.literal_solve(fam, a, d, policy)
    node = re.search(r"at node (\(.*\))$", str(literal.value)).group(1)
    with mock.patch.object(families, "_fourier_analysis_real") as half_analysis:
        for run in (lambda: solve_pde(spec, d, policy), lambda: solve(fam, a, d, policy)):
            with pytest.raises(NonFiniteSymbol) as info:
                run()
            assert f"at node {node}:" in str(info.value), (str(info.value), node)
    assert half_analysis.call_count == 0


@SETTINGS
@given(grid=grids(extents=st.floats(0.25, 2.0)), overshoot=st.floats(2.0, 8.0),
       nan=st.booleans(), kind=st.sampled_from(["real", "complex", "delta"]),
       fixed=st.booleans(), data=st.data())
def test_non_finite_complex_symbol_is_the_literal_solves_error(
        grid, overshoot, nan, kind, fixed, data):
    """A complex symbol with a term of degree 2 or 3 per axis whose real and
    imaginary parts reach ``overshoot`` times the largest float at the
    corner node ``|p_i| = N_i pi / (2 L_i)``.  With ``nan``, a second term
    two degrees higher on the first axis has the same coefficient, so that
    its value is the first's times ``-p_0^2``: where both overflow their
    sum is ``inf - inf``.  The solve names the node the literal solve names,
    the first non-finite one."""
    fam = FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, False))
    degree = tuple(data.draw(st.integers(2, 3)) for _ in range(grid.dim))
    corner = math.prod(p**k for p, k in zip(fam.index_grid.half_extents, degree))
    big = overshoot * (np.finfo(float).max / corner)
    terms[degree] = complex(*(data.draw(st.sampled_from([-1.0, 1.0])) * big for _ in "ri"))
    if nan:
        terms[(degree[0] + 2,) + degree[1:]] = terms[degree]
    spec, a = operator_symbol(fam, terms)
    assert not a._real_even
    with np.errstate(over="ignore", invalid="ignore"):
        values = a.sample(fam.index_grid)
    assert not np.isfinite(values).all()
    if nan:
        assert np.isnan(values).any()
    d = draw_datum(data.draw, grid, kind)
    policy = DivisionPolicy(zero_threshold=1e-3) if fixed else DivisionPolicy()
    with pytest.raises(NonFiniteSymbol) as literal:
        naive.literal_solve(fam, a, d, policy)
    node = re.search(r"at node (\(.*\))$", str(literal.value)).group(1)
    for run in (lambda: solve_pde(spec, d, policy), lambda: solve(fam, a, d, policy)):
        with pytest.raises(NonFiniteSymbol) as info:
            run()
        assert f"at node {node}:" in str(info.value), (str(info.value), node)


def marked_symbol(index, nodes, special):
    """``1 + |p|^2``, but ``special`` at the flat ``nodes`` of ``index``: a
    symbol that is no polynomial, so no path knows it to be real and even."""
    marked = index.points()[list(nodes)]

    def evaluator(*p):
        hit = np.zeros(np.broadcast(*p).shape, dtype=bool)
        for point in marked:
            hit |= np.logical_and.reduce([x == c for x, c in zip(p, point)])
        return np.where(hit, special, 1.0 + sum(x**2 for x in p))

    return SymbolFunction(index.dim, evaluator, "marked")


@SETTINGS
@given(grid=grids(), dirac=st.booleans(),
       special=st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                                complex(1.0, math.nan)]),
       kind=st.sampled_from(["real", "complex", "delta"]), data=st.data())
def test_non_finite_symbol_off_node_0_is_the_literal_samplers_error(
        grid, dirac, special, kind, data):
    """A symbol that is ``nan`` or infinite at drawn nodes, none of them
    node 0: ``solve``, ``spectral_apply``, ``divide`` and ``green_family``
    name the node ``naive.sample_symbol`` names, the first drawn one."""
    fam = DiracFamily(grid) if dirac else FourierFamily(grid)
    index = fam.index_grid
    nodes = data.draw(st.lists(st.integers(1, index.size - 1), min_size=1, max_size=3))
    a = marked_symbol(index, nodes, special)
    with pytest.raises(NonFiniteSymbol) as literal:
        naive.sample_symbol(a, index)
    node = re.search(r"at node (\(.*\))$", str(literal.value)).group(1)
    assert node == str(index.point_at(min(nodes)))
    d = draw_datum(data.draw, grid, kind)
    for run in (lambda: solve(fam, a, d), lambda: spectral_apply(a, fam, d),
                lambda: divide(fam.coordinates(d), a),
                lambda: green_family(fam, a, left_inverse_family(fam))):
        with pytest.raises(NonFiniteSymbol) as info:
            run()
        assert f"at node {node}:" in str(info.value), (str(info.value), node)


@SETTINGS
@given(grid=grids(extents=st.floats(1e-3, 1e3)), data=st.data())
def test_real_even_symbol_is_its_own_mirror_within_the_node_rounding(grid, data):
    """Where ``_real_even`` is set, the symbol at node ``k`` equals the one
    at its mirror ``-k mod N`` (per axis) up to the rounding of the nodes.
    Not bit for bit: the lattice ``-L + k dp`` is not symmetric in floats.

    The bound, from the node error.  Node ``k`` is
    ``fl(-L + fl(fl(2L/N) k))``, within ``2.5 eps L`` of ``-L + 2Lk/N``, so
    the mirror of ``p`` is ``-p + e`` with ``|e_i| <= 5 eps L_i``.  Off the
    nodes that are their own mirror (exactly equal there)
    ``|p_i| >= dp_i = 2 L_i / N_i`` to that rounding, so
    ``|e_i| / |p_i| <= 2.5 eps N_i``, taken as ``3 eps N_i`` to cover the
    second-order terms.  A monomial ``c p^j``, even in every axis, then
    moves by at most ``3 eps sum_i j_i N_i |c p^j|``.  Each of the two
    evaluations rounds ``n`` powers (1 ulp), ``n`` products and ``T``
    terms' sum by at most ``(3n + T) eps / 2`` of ``sum_j |c_j p^j|``.  So
    ``|a(p) - a(mirror p)| <= eps sum_j |c_j p^j| (3 sum_i j_i N_i + 3n + T)``.
    Real terms of degree 0, 2 or 4 per axis, half extents 1e-3 to 1e3."""
    fam = FourierFamily(grid)
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        idx = tuple(data.draw(st.sampled_from([0, 2, 4])) for _ in range(grid.dim))
        terms[idx] = complex(data.draw(COEFFICIENT))
    spec, a = operator_symbol(fam, terms)
    assert a._real_even
    index = fam.index_grid
    values = a.sample(index).reshape(index.counts)
    mirrored = values[np.ix_(*[-np.arange(n) % n for n in index.counts])]
    pts = np.abs(index.points())
    sizes = np.zeros(index.size)
    moved = np.zeros(index.size)
    for idx, c in spec.coeffs.items():
        size = abs(c) * np.prod([pts[:, i] ** k for i, k in enumerate(idx)], axis=0)
        sizes += size
        moved += 3 * sum(k * n for k, n in zip(idx, index.counts)) * size
    bound = EPS * (moved + (3 * grid.dim + len(spec.coeffs)) * sizes)
    gap = np.abs(values - mirrored).ravel()
    assert np.all(gap <= bound), float(np.max(gap / np.maximum(bound, np.finfo(float).tiny)))


#: evaluator coefficients: the unit, signed zeros, drawn magnitudes and ones
#: whose powers overflow (``inf - inf`` where two of them meet)
EVALUATOR_COEFFICIENT = st.one_of(
    st.sampled_from([1.0, -0.0, 0.0, -1.0, 1e300, -1e300]), COEFFICIENT)


@SETTINGS
@given(grid=grids(extents=st.floats(1e-3, 1e3)), complex_dtype=st.booleans(),
       per_axis=st.booleans(), data=st.data())
def test_polynomial_evaluator_is_the_sum_from_zeros(grid, complex_dtype, per_axis, data):
    """``grid._polynomial`` is bit for bit the sum from zeros it replaced
    (``naive.polynomial``): zero to four terms of degree 0 to 4 per axis, a
    constant ``1.0`` or ``-0.0`` among them, real coefficients on
    ``float64`` and real or complex ones on ``complex128``, at the whole
    grid's meshes or at one broadcast axis each (as the half sampler
    passes them)."""
    terms = []
    for _ in range(data.draw(st.integers(0, 4))):
        idx = tuple(data.draw(st.integers(0, 4)) for _ in range(grid.dim))
        coeff = data.draw(EVALUATOR_COEFFICIENT)
        if complex_dtype and data.draw(st.booleans()):
            coeff = complex(coeff, data.draw(EVALUATOR_COEFFICIENT))
        terms.append((idx, coeff))
    if data.draw(st.booleans()):
        constant = ((0,) * grid.dim, data.draw(st.sampled_from([1.0, -0.0])))
        terms.insert(data.draw(st.integers(0, len(terms))), constant)
    if per_axis:
        x = [grid.axis_points(i).reshape([-1 if j == i else 1 for j in range(grid.dim)])
             for i in range(grid.dim)]
    else:
        x = grid.meshes()
    dtype = np.complex128 if complex_dtype else np.float64
    with np.errstate(over="ignore", invalid="ignore"):
        got = grid_module._polynomial(terms, x, dtype)
        want = naive.polynomial(terms, x, dtype)
    assert got.shape == grid.counts
    assert same_words(got, want)


def expand_outputs(grid, terms, d):
    """The bytes of ``expansion.csv`` and ``integrand.csv`` that ``expand``
    writes for the ``polynomial`` symbol ``terms`` on the Fourier family,
    with ``d`` as its datum."""
    cfg = {
        "grid": {"dim": grid.dim, "counts": list(grid.counts),
                 "half_extents": list(grid.half_extents)},
        "operator": {"type": "diagonal", "family": "fourier", "symbol": {
            "name": "polynomial",
            "terms": {",".join(map(str, j)): [c.real, c.imag] for j, c in terms.items()},
        }},
        "datum": {"kind": "gaussian"},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output"] = {"directory": os.path.join(tmp, "out")}
        with open(os.path.join(tmp, "run.json"), "w") as fh:
            json.dump(cfg, fh)
        with mock.patch.object(cli, "_parse_datum", lambda section, g: (d, "drawn")), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(["expand", "--config", os.path.join(tmp, "run.json")]) == 0
        return [open(os.path.join(tmp, "out", name), "rb").read()
                for name in ("expansion.csv", "integrand.csv")]


def real_and_complex_built(grid, seed):
    """The same real values as a datum built from ``float64`` samples and as
    one built from ``complex128`` samples with imaginary parts ``+0.0``."""
    x = np.random.default_rng(seed).standard_normal(grid.size)
    real, copy = GridDistribution(grid, x), GridDistribution(grid, x.astype(np.complex128))
    assert real._real and not copy._real and same_words(real.samples, copy.samples)
    return real, copy


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(grid=grids(max_nodes=256), real_even=st.booleans(), with_zero=st.booleans(),
       dirac=st.booleans(), data=st.data())
def test_a_real_built_datum_gives_the_bits_of_its_complex_copy(
        grid, real_even, with_zero, dirac, data):
    """``solve_pde`` and ``solve`` (solution, quotient and residual, or the
    same error), ``spectral_apply`` and ``expand`` give the same bits for a
    datum built from real samples, which is known real without a scan, and
    for the same values given as complex with imaginary parts ``+0.0``,
    which are scanned.  The symbol vanishes at ``p = 0`` when ``with_zero``."""
    fam = DiracFamily(grid) if dirac else FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, real_even))
    spec, a = operator_symbol(fam, terms, 0 if with_zero else 8.0)

    def outputs(d):
        out = []
        for run in (lambda: solve_pde(spec, d), lambda: solve(fam, a, d)):
            try:
                result = run()
            except NotDivisible as exc:
                out.append(str(exc))
            else:
                out += [result.solution.samples, result.quotient.samples, np.float64(result.residual)]
        out.append(spectral_apply(a, fam, d).samples)
        return out + expand_outputs(grid, terms, d)

    real, copy = real_and_complex_built(grid, data.draw(st.integers(0, 2**32 - 1)))
    for got, want in zip(outputs(real), outputs(copy), strict=True):
        assert got == want if isinstance(got, (str, bytes)) else same_words(got, want)


@SETTINGS
@given(grid=grids(), even_terms=st.booleans(),
       imag=st.sampled_from(["real-built", "+0.0", "-0.0", "signed zeros", "complex"]),
       data=st.data())
def test_the_pair_follows_the_imaginary_parts(grid, even_terms, imag, data):
    """The solve, the apply and ``expand`` ask ``_transform_pair`` for the
    real pair exactly when ``not samples.imag.any()``: for a datum built
    from real samples, and for complex samples whose imaginary parts are
    all zeros of either sign; the half pair runs where the symbol is also
    real and even."""
    fam = FourierFamily(grid)
    terms = data.draw(poly_terms(grid.dim, even_terms))
    spec, a = operator_symbol(fam, terms, 8.0)
    real, samples = real_and_complex_built(grid, data.draw(st.integers(0, 2**32 - 1)))
    if imag == "real-built":
        d = real
    else:
        samples = np.array(samples.samples)
        if imag != "+0.0":
            signs = data.draw(st.lists(st.booleans(), min_size=grid.size, max_size=grid.size))
            samples.imag = np.where(signs, -0.0, 0.0) if imag == "signed zeros" else -0.0
        if imag == "complex":
            samples.imag[data.draw(st.integers(0, grid.size - 1))] = 1.0
        d = GridDistribution(grid, samples)
    rule = not d.samples.imag.any()
    assert rule == (imag != "complex")
    chosen = []

    def recording(v, symbol, is_real):
        pair = families._transform_pair(v, symbol, is_real)
        chosen.append((is_real, pair.half, symbol._real_even))
        return pair

    with mock.patch.object(solver_module, "_transform_pair", recording), \
            mock.patch.object(spectral_module, "_transform_pair", recording), \
            mock.patch.object(cli, "_transform_pair", recording):
        for run in (lambda: solve_pde(spec, d), lambda: solve(fam, a, d),
                    lambda: spectral_apply(a, fam, d), lambda: expand_outputs(grid, terms, d)):
            chosen.clear()
            with contextlib.suppress(NotDivisible):  # the symbol may vanish on the nodes
                run()
            is_real, half, real_even = chosen[0]
            assert is_real == rule and half == (rule and real_even), (chosen, imag)


# -- generated configs: keys and values swapped, several fields at once

KEYS = ["grid", "dim", "counts", "half_extents", "operator", "type", "family", "symbol",
        "name", "terms", "coefficients", "datum", "kind", "sigma", "center", "k", "c", "p",
        "path", "policy", "zero_threshold", "residual_threshold", "output", "directory"]
#: multi-index keys: good ones for one and two axes, and malformed ones
TERM_KEYS = ["0", "1", "2", "0,0", "2,0", "0,2", "1,1", "0,0,0", "-1", "1.5", "x", "",
             " 2", "0,", ",", "1,,2", "9" * 30]
VALUES = [None, True, 0, -1, 1.5, 1e308, 5e-324, math.inf, math.nan, int("9" * 400),
          "", "x", "2", [], {}, [1.0, 2.0], [[0.0]], {"0": 1.0}, "fourier", "samples"]
BASE_CONFIGS = [
    {"grid": {"dim": 1, "counts": [8], "half_extents": [2.0]},
     "operator": {"type": "differential", "coefficients": {"0": 1.0, "2": [-1.0, 0.0]}},
     "datum": {"kind": "samples", "path": "datum.csv"},
     "policy": {"zero_threshold": None, "residual_threshold": 1e-8}},
    {"grid": {"dim": 2, "counts": [4, 6], "half_extents": [1.0, 2.0]},
     "operator": {"type": "diagonal", "family": "fourier",
                  "symbol": {"name": "polynomial", "terms": {"0,0": 2.0, "2,0": 1.0, "0,2": 1.0}}},
     "datum": {"kind": "gaussian", "sigma": 0.5, "center": [0.25, 0.0]}},
    {"grid": {"dim": 2, "counts": [4, 4], "half_extents": [1.0, 1.0]},
     "operator": {"type": "multiplication",
                  "symbol": {"name": "polynomial", "terms": {"0,0": 2.0, "1,1": [0.0, 1.0]}}},
     "datum": {"kind": "delta", "p": [0.0, 0.5]}},
]


@st.composite
def swapped_configs(draw):
    """A valid base config with one to four edits: a key renamed (a term's
    multi-index among them), a value replaced, two fields' values swapped,
    or a field deleted."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(BASE_CONFIGS))))
    cfg["output"] = {"directory": "out"}
    for _ in range(draw(st.integers(1, 4))):
        paths = list(field_paths(cfg))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = node_at(cfg, path[:-1])
        edit = draw(st.sampled_from(["key", "value", "swap", "delete"]))
        if edit == "key" and isinstance(parent, dict):
            terms = path[-2:-1] in (("terms",), ("coefficients",))
            parent[draw(st.sampled_from(TERM_KEYS if terms else KEYS))] = parent.pop(path[-1])
        elif edit == "swap":
            other = draw(st.sampled_from(paths))
            if other[:len(path)] != path and path[:len(other)] != other:
                other_parent = node_at(cfg, other[:-1])
                parent[path[-1]], other_parent[other[-1]] = (
                    other_parent[other[-1]], parent[path[-1]])
        elif edit == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(draw(st.sampled_from(VALUES))))
    return cfg


def node_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=swapped_configs(),
       command=st.sampled_from([["solve"], ["expand"], ["green", "--index", "0"]]))
def test_swapped_configs_keep_the_cli_contract(tmp_path, monkeypatch, cfg, command):
    """Exit 0, 1, 2 or 3, at most one line on stderr, never a traceback."""
    monkeypatch.chdir(tmp_path)  # relative output directories land here
    rows = [f"{-2.0 + 0.5 * k!r},{math.sin(k)!r},0.0\n" for k in range(8)]
    (tmp_path / "datum.csv").write_text("x0,re,im\n" + "".join(rows))
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command[0], "--config", "run.json"] + command[1:])
    assert code in (0, 1, 2, 3), (code, cfg)
    assert len(err.getvalue().splitlines()) <= 1, (err.getvalue(), cfg)
