"""Acceptance checks, one per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not calibrated at run time.

Criterion 8 compares the Green member G_0 of ``1 + p^2`` at N=1024, L=20
with two references.  On a grid the superposition defining G_0 runs over the
dual band |p| <= P = pi/dx only, so the sup-norm reference is the
band-limited continuum kernel G_P(x) = (1/2pi) int_{-P}^{P} e^{-ipx}/(1+p^2) dp,
computed here by Gauss-Legendre quadrature (measured gap ~2.9e-9).  The
unbanded kernel 0.5 e^{-|x|} differs from G_P by a first-order truncation
error (~ dx/pi^2 ~= 3.96e-3, all of it at the kink node), so it is checked at
the kink instead: 0.5 - G_0(0) must equal the spectral tail
(1/pi)(pi/2 - arctan P) (measured difference ~2.5e-9).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from schwartzcalc import (
    DiagonalOperator,
    DiracFamily,
    DifferentialOperatorSpec,
    FourierFamily,
    GridDistribution,
    NotDivisible,
    SymbolFunction,
    coordinates,
    dense_from_diagonal,
    eigenspectrum_measure,
    family_product,
    finite_difference,
    green_family,
    integrate_measure,
    left_inverse_family,
    make_grid,
    member,
    operator_spectral_measure,
    pairing,
    sample_function,
    solve_pde,
    spectral_apply,
    spectral_distribution,
    spectrum_identity,
    superpose,
    sup_norm,
)
from schwartzcalc.cli import main

from naive import band_limited


def report(num, name, ok, detail):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_resolution_of_identity():
    g = make_grid(1, [256], [8.0])
    fam = FourierFamily(g)
    u = sample_function(g, lambda x: np.exp(-(x**2)))
    back = superpose(coordinates(u, fam), fam)
    rel = sup_norm(back - u) / sup_norm(u)
    ok = rel <= 1e-10
    report(1, "resolution of identity", ok, f"rel sup error {rel:.3e} <= 1e-10")
    assert ok


def test_criterion_02_spectral_expansion_vs_oracle():
    g = make_grid(1, [256], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    u = sample_function(g, lambda x: np.exp(-(x**2)))
    image = spectral_apply(a, fam, u)
    exact = sample_function(g, lambda x: -2 * x * np.exp(-(x**2)))
    rel_l2 = np.linalg.norm(image.samples - exact.samples) / np.linalg.norm(exact.samples)
    dense = dense_from_diagonal(fam, a)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(16):
        probe = band_limited(rng, fam, 40)
        gap = dense.apply(probe) - spectral_apply(a, fam, probe)
        worst = max(worst, np.linalg.norm(gap.samples) / np.linalg.norm(probe.samples))
    ok = rel_l2 <= 1e-8 and worst <= 1e-12
    report(
        2, "spectral expansion vs oracle", ok,
        f"analytic rel L2 {rel_l2:.3e} <= 1e-8; dense gap {worst:.3e} <= 1e-12",
    )
    assert rel_l2 <= 1e-8
    assert worst <= 1e-12


def test_criterion_03_dirac_spectral_distribution():
    g = make_grid(1, [128], [8.0])
    fam = DiracFamily(g)
    f = SymbolFunction(1, lambda x: 1 + x**2, "1+x^2")
    rng = np.random.default_rng(42)
    u = GridDistribution(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    lhs = spectral_distribution(fam).evaluate(f).apply(u)
    rhs = f.sample(g) * u.samples
    rel = np.max(np.abs(lhs.samples - rhs)) / np.max(np.abs(rhs))
    ok = rel <= 1e-14
    report(3, "dirac spectral distribution", ok, f"max rel error {rel:.3e} <= 1e-14")
    assert ok


def test_criterion_04_algebra_homomorphism():
    g = make_grid(1, [128], [math.pi])
    fam = FourierFamily(g)
    mu = spectral_distribution(fam)
    f = SymbolFunction(1, lambda p: p**2, "p^2")
    h = SymbolFunction(1, lambda p: np.cos(p), "cos p")
    rng = np.random.default_rng(42)
    u = GridDistribution(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    lhs = mu.evaluate(f * h).apply(u)
    rhs = mu.evaluate(f).apply(mu.evaluate(h).apply(u))
    rel = np.linalg.norm(lhs.samples - rhs.samples) / np.linalg.norm(u.samples)
    ok = rel <= 1e-10
    report(4, "algebra homomorphism", ok, f"rel error {rel:.3e} <= 1e-10")
    assert ok


def test_criterion_05_eigenspectrum_measures():
    g = make_grid(1, [256], [8.0])
    fam = FourierFamily(g)
    a = SymbolFunction(1, lambda p: -1j * p, "-ip")
    A = DiagonalOperator(fam, a)
    u = sample_function(g, lambda x: np.exp(-(x**2)) * (1 + np.cos(x)))
    lhs = coordinates(A.apply(u), fam)
    rhs = eigenspectrum_measure(u, fam, a).evaluate(spectrum_identity())
    rel = np.max(np.abs(lhs.samples - rhs.samples)) / np.max(np.abs(rhs.samples))
    ident = integrate_measure(operator_spectral_measure(a, fam))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(8):
        probe = band_limited(rng, fam, 40)
        out = ident.apply(probe)
        worst = max(
            worst, np.max(np.abs(out.samples - probe.samples)) / np.max(np.abs(probe.samples))
        )
    ok = rel <= 1e-12 and worst <= 1e-10
    report(
        5, "eigenspectrum measures", ok,
        f"integrand rel {rel:.3e} <= 1e-12; identity on probes {worst:.3e} <= 1e-10",
    )
    assert rel <= 1e-12
    assert worst <= 1e-10


def test_criterion_06_solver_correctness():
    g = make_grid(1, [64], [math.pi])
    result = solve_pde(DifferentialOperatorSpec({(1,): 1.0}), sample_function(g, np.sin))
    exact = sample_function(g, lambda x: -np.cos(x))
    rel1 = sup_norm(result.solution - exact) / sup_norm(exact)

    g2 = make_grid(1, [128], [8.0])
    helm = DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
    d = sample_function(g2, lambda x: np.exp(-(x**2) / 4.5))  # band-limited gaussian
    result2 = solve_pde(helm, d)
    fd = finite_difference(helm, g2, order=2)
    u_fd = np.linalg.solve(fd.matrix, d.samples)
    rel_fd = np.linalg.norm(result2.solution.samples - u_fd) / np.linalg.norm(u_fd)
    ok = rel1 <= 1e-10 and result2.residual <= 1e-10 and rel_fd <= 1e-3
    report(
        6, "solver correctness", ok,
        f"sine {rel1:.3e} <= 1e-10; residual {result2.residual:.3e} <= 1e-10; "
        f"FD agreement {rel_fd:.3e} <= 1e-3",
    )
    assert rel1 <= 1e-10
    assert result2.residual <= 1e-10
    assert rel_fd <= 1e-3


def test_criterion_07_divisibility_failure(tmp_path):
    g = make_grid(1, [64], [math.pi])
    with pytest.raises(NotDivisible) as info:
        solve_pde(DifferentialOperatorSpec({(1,): 1.0}), sample_function(g, lambda x: np.ones_like(x)))
    worst_ok = info.value.worst_point == (0.0,)
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"dim": 1, "counts": [64], "half_extents": [math.pi]},
                "operator": {"type": "differential", "coefficients": {"1": 1.0}},
                "datum": {"kind": "constant", "c": 1.0},
                "output": {"directory": str(tmp_path / "out")},
            }
        )
    )
    code = main(["solve", "--config", str(cfg)])
    ok = worst_ok and code == 2
    report(
        7, "divisibility failure", ok,
        f"worst index {info.value.worst_point} == (0.0,); CLI exit {code} == 2",
    )
    assert worst_ok
    assert code == 2


def test_criterion_08_green_family():
    g = make_grid(1, [1024], [20.0])
    lam = FourierFamily(g)
    l = SymbolFunction(1, lambda p: 1.0 + p**2, "1+p^2")
    result = green_family(lam, l, left_inverse_family(lam))
    G0 = member(result.family, (0.0,))
    x = g.axis_points(0)
    inner = np.abs(x) <= 10.0
    # band-limited continuum kernel G_P on the dual band |p| <= P = pi/dx, by
    # composite Gauss-Legendre quadrature: 64 panels of 32 nodes
    P = math.pi / g.spacings[0]
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(-P, P, 65)
    half = 0.5 * np.diff(edges)[:, None]
    p = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    w = (half * weights).ravel()
    band_kernel = np.cos(np.outer(x[inner], p)) / (1.0 + p**2) @ w / (2.0 * math.pi)
    band_gap = float(np.max(np.abs(G0.samples[inner] - band_kernel)))
    # at the kink, 0.5 e^{-|x|} exceeds G_P by the spectral tail beyond P
    tail = (math.pi / 2.0 - math.atan(P)) / math.pi
    kink = int(np.flatnonzero(x == 0.0)[0])
    kink_gap = abs((0.5 - G0.samples[kink]) - tail)
    # weak residuals over 8 evenly spaced indices (probe set is fixed at 8)
    weak = float(np.max(result.weak_residuals[:: g.size // 8]))
    ok = band_gap <= 1e-3 and kink_gap <= 1e-6 and weak <= 1e-6
    report(
        8, "green family", ok,
        f"sup gap to band-limited kernel {band_gap:.3e} <= 1e-3; "
        f"kink tail difference {kink_gap:.3e} <= 1e-6; weak residual {weak:.3e} <= 1e-6",
    )
    assert weak <= 1e-6, f"weak residual {weak:.4e} > 1e-6"
    assert band_gap <= 1e-3, (
        f"sup_|x|<=10 |G_0 - G_P| = {band_gap:.4e} > 1e-3 at N=1024, L=20, where "
        "G_P(x) = (1/2pi) int_{-P}^{P} e^{-ipx}/(1+p^2) dp is the Green kernel of "
        f"1 - d^2/dx^2 restricted to the dual band P = pi/dx = {P:.4f}"
    )
    assert kink_gap <= 1e-6, (
        f"|(0.5 - G_0(0)) - (1/pi)(pi/2 - arctan P)| = {kink_gap:.4e} > 1e-6: the gap "
        "to the unbanded kernel 0.5 e^-|x| at the kink is not the spectral tail "
        f"beyond P (tail {tail:.4e})"
    )


def test_criterion_09_factorization_hypothesis():
    g = make_grid(1, [128], [6.0])
    fam = FourierFamily(g)
    prod = family_product(left_inverse_family(fam), fam)
    phi = lambda x: np.exp(-((x - 0.5) ** 2) / 2.0)
    worst = 0.0
    for p in g.axis_points(0)[:: g.size // 8]:
        val = pairing(member(prod, p), phi)
        worst = max(worst, abs(val - phi(np.array(p))))
    ok = worst <= 1e-8
    report(9, "factorization hypothesis", ok, f"pairing error {worst:.3e} <= 1e-8")
    assert ok


def test_criterion_10_determinism():
    # the child does not get pytest's pythonpath, so it is given the checkout's src/
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, SCHWARTZ_SEED="42", PYTHONPATH=path)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "schwartzcalc", "verify", "all"],
            capture_output=True,
            env=env,
        )
        for _ in range(2)
    ]
    identical = runs[0].stdout == runs[1].stdout
    ok = identical and all(r.returncode == 0 for r in runs)
    report(
        10, "determinism", ok,
        f"identical reports: {identical}; exit codes {[r.returncode for r in runs]}",
    )
    assert identical
    assert all(r.returncode == 0 for r in runs)
