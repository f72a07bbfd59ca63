"""Self-check suites: the package's invariants run at desk scale.

Each suite performs a handful of named checks on fixed small grids, using a
seeded generator for random probes (seed taken from the CLI / environment),
and reports one row per check.  Output is fully deterministic for a given
seed: no timestamps, fixed float formatting, fixed ordering.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NotDivisible, NotInvertible
from .grid import (
    GridDistribution,
    SymbolFunction,
    l2_norm,
    make_grid,
    pairing,
    sample_function,
    sup_norm,
    unit_symbol,
)
from .families import DiracFamily, FourierFamily, coordinates, delta_distribution, superpose
from .spectral import (
    DiagonalOperator,
    IdentityOperator,
    MultiplicationOperator,
    eigenspectrum_measure,
    integrate_measure,
    is_eigenfamily,
    operator_spectral_measure,
    scale_measure,
    spectral_apply,
    spectral_distribution,
    spectrum_identity,
)
from .solver import DifferentialOperatorSpec, DivisionPolicy, divide, solve, solve_pde
from .green import green_family, green_family_divided, left_inverse_family
from .oracle import dense_from_diagonal, finite_difference

__all__ = ["Check", "SUITE_NAMES", "run_suites", "format_report"]

SUITE_NAMES = ("identity", "homomorphism", "eigen", "solver", "green")


@dataclasses.dataclass(frozen=True)
class Check:
    suite: str
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def _random_distribution(rng, grid) -> GridDistribution:
    return GridDistribution(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )


def _band_limited(rng, family, width: int) -> GridDistribution:
    """Random distribution supported on the ``width`` lowest frequencies."""
    n = family.index_grid.size
    c = np.zeros(n, dtype=np.complex128)
    lo = n // 2 - width
    hi = n // 2 + width
    c[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    return superpose(GridDistribution(family.index_grid, c), family)


def _rel(diff: GridDistribution, ref: GridDistribution) -> float:
    denom = l2_norm(ref)
    return l2_norm(diff) / denom if denom > 0.0 else l2_norm(diff)


def _suite_identity(rng) -> list[Check]:
    checks = []
    g = make_grid(1, [256], [8.0])
    four = FourierFamily(g)
    u = sample_function(g, lambda x: np.exp(-(x**2)))
    back = superpose(coordinates(u, four), four)
    checks.append(
        Check("identity", "fourier gaussian round trip", sup_norm(back - u) / sup_norm(u), 1e-10)
    )
    dirac = DiracFamily(g)
    ur = _random_distribution(rng, g)
    backd = superpose(coordinates(ur, dirac), dirac)
    checks.append(
        Check("identity", "dirac round trip", sup_norm(backd - ur) / sup_norm(ur), 1e-14)
    )
    c = _random_distribution(rng, four.index_grid)
    backc = coordinates(superpose(c, four), four)
    checks.append(
        Check("identity", "fourier coefficient round trip", sup_norm(backc - c) / sup_norm(c), 1e-10)
    )
    # linearity of analysis/synthesis
    u2 = _random_distribution(rng, g)
    alpha, beta = 0.7 - 0.2j, -1.3 + 0.4j
    lin = coordinates(alpha * ur + beta * u2, four) - (
        alpha * coordinates(ur, four) + beta * coordinates(u2, four)
    )
    scale = sup_norm(coordinates(ur, four)) + sup_norm(coordinates(u2, four))
    checks.append(Check("identity", "coordinates linearity", sup_norm(lin) / scale, 1e-12))
    return checks


def _suite_homomorphism(rng) -> list[Check]:
    checks = []
    g = make_grid(1, [128], [math.pi])
    four = FourierFamily(g)
    mu_v = spectral_distribution(four)
    f = SymbolFunction(1, lambda p: p**2, "p^2")
    h = SymbolFunction(1, lambda p: np.cos(p), "cos p")
    u = _random_distribution(rng, g)
    lhs = mu_v.evaluate(f * h).apply(u)
    rhs = mu_v.evaluate(f).apply(mu_v.evaluate(h).apply(u))
    checks.append(Check("homomorphism", "product goes to composition", _rel(lhs - rhs, u), 1e-10))
    ident = integrate_measure(mu_v).apply(u)
    checks.append(Check("homomorphism", "unit constant gives identity", _rel(ident - u, u), 1e-12))
    dirac = DiracFamily(g)
    fx = SymbolFunction(1, lambda x: 1 + x**2, "1+x^2")
    lhsd = spectral_distribution(dirac).evaluate(fx).apply(u)
    rhsd = MultiplicationOperator(fx).apply(u)
    checks.append(
        Check("homomorphism", "dirac measure is multiplication", _rel(lhsd - rhsd, rhsd), 1e-14)
    )
    # recover a symbol difference from actions on members (injectivity surrogate)
    diff = SymbolFunction(1, lambda p: 1e-3 * np.sin(p), "small diff")
    op_f = mu_v.evaluate(f)
    op_g = mu_v.evaluate(f + diff)
    worst = 0.0
    for p in four.index_grid.axis_points(0)[::16]:
        vp = four.member((p,))
        gap = op_g.apply(vp) - op_f.apply(vp)
        recovered = gap.samples[np.argmax(np.abs(vp.samples))] / vp.samples[
            np.argmax(np.abs(vp.samples))
        ]
        worst = max(worst, abs(recovered - diff.at((p,))))
    checks.append(Check("homomorphism", "symbol recovery from members", worst, 1e-10))
    sm1 = scale_measure(f, scale_measure(h, mu_v))
    sm2 = scale_measure(f * h, mu_v)
    d1 = sm1.evaluate(unit_symbol(1)).apply(u)
    d2 = sm2.evaluate(unit_symbol(1)).apply(u)
    checks.append(Check("homomorphism", "measure scaling composes", _rel(d1 - d2, u), 1e-12))
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    u_smooth = sample_function(g, lambda x: np.exp(np.cos(x)))
    lhs_e = coordinates(DiagonalOperator(four, a).apply(u_smooth), four)
    rhs_e = eigenspectrum_measure(u_smooth, four, a).evaluate(spectrum_identity())
    checks.append(
        Check("homomorphism", "expansion by spectrum integration", _rel(lhs_e - rhs_e, rhs_e), 1e-12)
    )
    w = integrate_measure(operator_spectral_measure(a, four)).apply(u_smooth)
    checks.append(
        Check("homomorphism", "operator spectrum measure integrates to identity",
              _rel(w - u_smooth, u_smooth), 1e-10)
    )
    return checks


def _suite_eigen(rng) -> list[Check]:
    checks = []
    g = make_grid(1, [256], [8.0])
    four = FourierFamily(g)
    p_axis = four.index_grid.axis_points(0)
    ident_report = is_eigenfamily(
        IdentityOperator(), four, unit_symbol(1), tol=1e-12,
        indices=[(p,) for p in p_axis[::32]],
    )
    checks.append(Check("eigen", "identity has unit eigenvalues", ident_report.max_residual, 1e-12))
    deriv = DifferentialOperatorSpec({(1,): 1.0})
    fd4 = finite_difference(deriv, g, order=4)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    band = [(p,) for p in p_axis[np.abs(p_axis) <= 1.0]]
    band_report = is_eigenfamily(fd4, four, a, tol=1e-6, indices=band)
    checks.append(
        Check("eigen", "derivative matrix on resolved band", band_report.max_residual, 1e-6)
    )
    mul = MultiplicationOperator(SymbolFunction(1, lambda x: x**2, "x^2"))
    bad = is_eigenfamily(
        mul, four, SymbolFunction(1, lambda p: p**2, "p^2"), tol=1e-4,
        indices=[(p,) for p in p_axis[::64]],
    )
    # detection check: large residual expected, score 0 when found
    checks.append(
        Check("eigen", "non-eigenfamily detected", 0.0 if not bad.passed else 1.0, 0.5)
    )
    dense = dense_from_diagonal(four, a)
    u = _band_limited(rng, four, 40)
    gap = dense.apply(u) - spectral_apply(a, four, u)
    checks.append(Check("eigen", "dense oracle matches expansion", _rel(gap, u), 1e-12))
    return checks


def _suite_solver(rng) -> list[Check]:
    checks = []
    g = make_grid(1, [64], [math.pi])
    d = sample_function(g, np.sin)
    deriv = DifferentialOperatorSpec({(1,): 1.0})
    res = solve_pde(deriv, d)
    exact = sample_function(g, lambda x: -np.cos(x))
    checks.append(
        Check("solver", "antiderivative of sine", sup_norm(res.solution - exact) / sup_norm(exact), 1e-10)
    )
    g2 = make_grid(1, [128], [8.0])
    helm = DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
    d2 = sample_function(g2, lambda x: np.exp(-(x**2) / 4.5))
    res2 = solve_pde(helm, d2)
    checks.append(Check("solver", "helmholtz spectral residual", res2.residual, 1e-10))
    fd = finite_difference(helm, g2, order=2)
    u_fd = np.linalg.solve(fd.matrix, d2.samples)
    rel = np.linalg.norm(res2.solution.samples - u_fd) / np.linalg.norm(u_fd)
    checks.append(Check("solver", "helmholtz matches dense FD solve", rel, 1e-3))
    four = FourierFamily(g2)
    a = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    dv = coordinates(d2, four)
    uv = coordinates(res2.solution, four)
    eig_gap = np.max(np.abs(a.sample(four.index_grid) * uv.samples - dv.samples))
    checks.append(
        Check("solver", "eigen-representation identity", eig_gap / np.max(np.abs(dv.samples)), 1e-12)
    )
    try:
        solve_pde(deriv, sample_function(g, lambda x: np.ones_like(x)))
        failed = 1.0
    except NotDivisible as exc:
        failed = 0.0 if exc.worst_point == (0.0,) else 1.0
    checks.append(Check("solver", "constant datum is indivisible at zero", failed, 0.5))
    # gauge freedom: mass added on the zero set moves the residual by <= eps * mass
    policy = DivisionPolicy()
    dsin = sample_function(g, np.sin)
    a1 = SymbolFunction(1, lambda p: -1j * p, "-ip")
    fam = FourierFamily(g)
    q = divide(coordinates(dsin, fam), a1, policy)
    a_vals = a1.sample(fam.index_grid)
    eps = policy.resolve_zero_threshold(a_vals)
    bump = np.where(np.abs(a_vals) <= eps, 10.0 + 0.0j, 0.0)
    q2 = GridDistribution(fam.index_grid, q.samples + bump)
    r1 = sup_norm(spectral_apply(a1, fam, superpose(q, fam)) - dsin)
    r2 = sup_norm(spectral_apply(a1, fam, superpose(q2, fam)) - dsin)
    mass = float(np.sum(np.abs(bump)) * fam.index_grid.cell_volume)
    bound = eps * mass + 1e-13
    checks.append(Check("solver", "zero-set gauge freedom", max(0.0, (r2 - r1) - bound), 1e-13))
    return checks


def _suite_green(rng) -> list[Check]:
    checks = []
    g = make_grid(1, [256], [10.0])
    lam = FourierFamily(g)
    helm = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    mu = left_inverse_family(lam)
    result = green_family(lam, helm, mu)
    checks.append(Check("green", "weak residual of helmholtz family", result.max_weak_residual(), 1e-6))
    # the member at 0 approximates the decaying kernel to first order in dx
    G0 = result.family.member((0.0,))
    x = g.axis_points(0)
    inner = np.abs(x) <= 5.0
    kernel_gap = np.max(np.abs(G0.samples[inner] - 0.5 * np.exp(-np.abs(x[inner]))))
    dx = g.spacings[0]
    checks.append(Check("green", "kernel matches analytic to O(dx)", kernel_gap, 2.0 * dx / math.pi**2))
    # solver consistency: member = solve with delta datum
    sol = solve(lam, helm, delta_distribution(g, (0.0,)))
    checks.append(
        Check("green", "member equals delta solve", sup_norm(sol.solution - G0) / sup_norm(G0), 1e-12)
    )
    # unit symbol reduces to the left-inverse product, which pairs like deltas
    ones = unit_symbol(1)
    trivial = green_family(lam, ones, mu)
    worst = 0.0
    for p in x[::64]:
        gp = trivial.family.member((p,))
        val = pairing(gp, lambda xx: np.exp(-((xx - 1.0) ** 2) / 2.0))
        worst = max(worst, abs(val - math.exp(-((p - 1.0) ** 2) / 2.0)))
    checks.append(Check("green", "unit symbol gives dirac pairing", worst, 1e-8))
    try:
        green_family(lam, SymbolFunction(1, lambda p: -1j * p, "-ip"), mu)
        invert = 1.0
    except NotInvertible as exc:
        invert = 0.0 if exc.worst_point == (0.0,) else 1.0
    checks.append(Check("green", "derivative symbol not invertible", invert, 0.5))
    divided = green_family_divided(lam, helm, mu)
    # each read of a lazy family's kernel builds the table, so read each once
    table = result.family.kernel
    gap = np.max(np.abs(divided.family.kernel - table))
    scale = np.max(np.abs(table))
    checks.append(Check("green", "divided route agrees off zero set", gap / scale, 1e-12))
    return checks


_SUITES = {
    "identity": _suite_identity,
    "homomorphism": _suite_homomorphism,
    "eigen": _suite_eigen,
    "solver": _suite_solver,
    "green": _suite_green,
}


def run_suites(names, seed: int) -> list[Check]:
    """Run the named suites in order with a fresh seeded generator each."""
    checks = []
    for name in names:
        rng = np.random.default_rng(seed)
        checks.extend(_SUITES[name](rng))
    return checks


def format_report(checks: list[Check], seed: int) -> str:
    """Deterministic pass/fail table for a list of checks."""
    lines = [f"schwartzcalc verification report (seed={seed})"]
    name_width = max(len(c.name) for c in checks)
    suite_width = max(len(c.suite) for c in checks)
    header = (
        f"{'suite':<{suite_width}}  {'check':<{name_width}}  "
        f"{'value':>12}  {'tolerance':>12}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"{c.suite:<{suite_width}}  {c.name:<{name_width}}  "
            f"{c.value:>12.4e}  {c.tolerance:>12.4e}  {status}"
        )
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"summary: {len(checks) - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"
