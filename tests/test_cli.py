import collections
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from schwartzcalc.cli import main

# every report.json a test here writes must parse as strict JSON
pytestmark = pytest.mark.usefixtures("strict_reports")


def write_config(path, **sections):
    with open(path, "w") as fh:
        json.dump(sections, fh)
    return str(path)


def read_csv_samples(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[-2:] == ["re", "im"]
    coords = np.array([[float(v) for v in r[:-2]] for r in data])
    values = np.array([float(r[-2]) + 1j * float(r[-1]) for r in data])
    return coords, values


GRID_64_PI = {"dim": 1, "counts": [64], "half_extents": [math.pi]}
DDX = {"type": "differential", "coefficients": {"1": 1.0}}


def test_solve_sine_golden_run(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator=DDX,
        datum={"kind": "sin", "k": 1.0},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["solve", "--config", cfg]) == 0
    coords, values = read_csv_samples(tmp_path / "out" / "solution.csv")
    np.testing.assert_allclose(values, -np.cos(coords[:, 0]), atol=1e-10)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["divisible"] is True
    assert report["residual"] <= 1e-10
    assert report["grid"]["counts"] == [64]
    assert "policy" in report


def test_solve_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = write_config(
            tmp_path / f"{out.name}.json",
            grid=GRID_64_PI,
            operator=DDX,
            datum={"kind": "sin", "k": 1.0},
            output={"directory": str(out)},
        )
        assert main(["solve", "--config", cfg]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1 == r2


def test_solve_constant_datum_exits_2_with_worst_index(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator=DDX,
        datum={"kind": "constant", "c": 1.0},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["solve", "--config", cfg]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "not_divisible"
    assert report["divisible"] is False
    assert report["worst_index"] == [0.0]


def test_solve_malformed_grid_exits_1(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [7], "half_extents": [1.0]},
        operator=DDX,
        datum={"kind": "sin", "k": 1.0},
    )
    assert main(["solve", "--config", cfg]) == 1


def test_solve_bad_config_variants(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["solve", "--config", str(bad_json)]) == 1
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator={"type": "mystery"},
        datum={"kind": "sin"},
    )
    assert main(["solve", "--config", cfg]) == 1
    cfg2 = write_config(
        tmp_path / "run2.json",
        grid=GRID_64_PI,
        operator=DDX,
        datum={"kind": "noise"},
    )
    assert main(["solve", "--config", cfg2]) == 1


def test_expand_identity_returns_datum(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [128], "half_extents": [8.0]},
        operator={"type": "diagonal", "family": "fourier", "symbol": {"name": "one"}},
        datum={"kind": "gaussian", "sigma": 1.0, "center": 0.0},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["expand", "--config", cfg]) == 0
    coords, values = read_csv_samples(tmp_path / "out" / "expansion.csv")
    np.testing.assert_allclose(values, np.exp(-coords[:, 0] ** 2 / 2.0), atol=1e-10)
    # integrand of the unit symbol is the coordinate distribution itself
    assert (tmp_path / "out" / "integrand.csv").exists()


def test_expand_dirac_multiplication(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [64], "half_extents": [2.0]},
        operator={
            "type": "multiplication",
            "symbol": {"name": "polynomial", "terms": {"0": 1.0, "2": 1.0}},
        },
        datum={"kind": "cos", "k": 2.0},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["expand", "--config", cfg]) == 0
    coords, values = read_csv_samples(tmp_path / "out" / "expansion.csv")
    x = coords[:, 0]
    np.testing.assert_allclose(values, (1 + x**2) * np.cos(2 * x), atol=1e-12)


def test_expand_zero_datum(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [64], "half_extents": [2.0]},
        operator=DDX,
        datum={"kind": "constant", "c": 0.0},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["expand", "--config", cfg]) == 0
    _, values = read_csv_samples(tmp_path / "out" / "expansion.csv")
    assert np.max(np.abs(values)) == 0.0


def test_green_helmholtz_member(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [256], "half_extents": [10.0]},
        operator={"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["green", "--config", cfg, "--index", "0.0"]) == 0
    coords, values = read_csv_samples(tmp_path / "out" / "green_000.csv")
    x = coords[:, 0]
    inner = np.abs(x) <= 5.0
    gap = np.max(np.abs(values[inner] - 0.5 * np.exp(-np.abs(x[inner]))))
    dx = 20.0 / 256
    assert gap <= 2.0 * dx / math.pi**2  # first-order kink error
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["route"] == "reciprocal"
    assert report["weak_residuals"]["green_000.csv"] <= 1e-6


def test_green_identity_operator_gives_delta_columns(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [64], "half_extents": [4.0]},
        operator={"type": "diagonal", "family": "fourier", "symbol": {"name": "one"}},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["green", "--config", cfg, "--index", "0.0", "--index", "1.0"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["weak_residuals"]["green_000.csv"] <= 1e-8
    assert report["weak_residuals"]["green_001.csv"] <= 1e-8
    coords, values = read_csv_samples(tmp_path / "out" / "green_001.csv")
    # delta-like column: dominant node at x = 1 with height 1/dx
    k = int(np.argmax(np.abs(values)))
    assert coords[k, 0] == pytest.approx(1.0)
    assert values[k] == pytest.approx(64 / 8.0, rel=1e-6)


def test_green_derivative_operator_exits_2(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator=DDX,
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["green", "--config", cfg, "--index", "0.0"]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] in ("not_divisible", "not_invertible")


def _fourier(terms):
    return {"type": "diagonal", "family": "fourier", "symbol": {"name": "polynomial", "terms": terms}}


@pytest.mark.parametrize(
    "operator, policy, code, route, halves",
    [
        (DDX, None, 2, None, 0),
        (
            {"type": "multiplication", "symbol": {"name": "polynomial", "terms": {"2": 1.0}}},
            {"residual_threshold": 1.0},
            0,
            "divided",
            0,
        ),
        (_fourier({"0": 2.0, "1": [0.0, 0.5], "2": [1.0, -0.25]}), None, 0, "reciprocal", 0),
        (_fourier({"0": 1.0, "2": 1.0}), None, 0, "reciprocal", 1),
    ],
    ids=["not-divisible", "divided", "fourier-complex", "fourier-real-even"],
)
def test_green_on_a_zero_set_symbol_samples_it_once(
    monkeypatch, tmp_path, operator, policy, code, route, halves
):
    # once on the whole index grid, and once more on the half spectrum for
    # the real members of a real, even Fourier symbol, however many are built
    from schwartzcalc import families
    from schwartzcalc.grid import SymbolFunction

    calls, half_calls = [], []
    original, original_half = SymbolFunction.sample_finite, families._sample_half

    def counting(self, grid):
        calls.append(grid)
        return original(self, grid)

    def counting_half(a, index):
        half_calls.append(index)
        return original_half(a, index)

    monkeypatch.setattr(SymbolFunction, "sample_finite", counting)
    monkeypatch.setattr(families, "_sample_half", counting_half)
    sections = {"policy": policy} if policy else {}
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [32], "half_extents": [5.0]},
        operator=operator,
        output={"directory": str(tmp_path / "out")},
        **sections,
    )
    assert main(["green", "--config", cfg, "--index", "0.0", "--index", "-1.25"]) == code
    assert len(calls) == 1
    assert len(half_calls) == halves
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report.get("route") == route
    if route is None:
        assert report["status"] == "not_divisible"


def test_green_off_grid_index_exits_1(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator={"type": "diagonal", "family": "fourier", "symbol": {"name": "one"}},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["green", "--config", cfg, "--index", "0.123"]) == 1


def test_green_off_grid_index_exits_1_before_building(monkeypatch, tmp_path):
    import schwartzcalc.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("Green family built for an off-grid index")

    for name in ("left_inverse_family", "green_family_divided"):
        monkeypatch.setattr(cli, name, never)
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator={"type": "multiplication", "symbol": {"name": "one"}},
        output={"directory": str(tmp_path / "out")},
    )
    argv = ["green", "--config", cfg, "--index", "0.0", "--index", "0.123"]
    assert cli.main(argv) == 1
    assert cli.main(["green", "--config", cfg, "--index", "inf"]) == 1


def test_green_far_off_grid_index_names_plain_floats_and_a_grid_node(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator={"type": "multiplication", "symbol": {"name": "one"}},
        output={"directory": str(tmp_path / "out")},
    )
    last = -math.pi + 63 * (2 * math.pi / 64)
    for index, node in (("1e30", f"{last:g}"), ("-1e30", f"{-math.pi:g}")):
        assert main(["green", "--config", cfg, "--index", index]) == 1
        err = capsys.readouterr().err
        assert f"point ({float(index)!r},)" in err and "np.float64" not in err
        assert f"nearest node {node})" in err


@pytest.mark.parametrize("sigma", [1e-200, -1.0])
def test_gaussian_sigma_negative_or_whose_square_underflows_is_named(tmp_path, capsys, sigma):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator=DDX,
        datum={"kind": "gaussian", "sigma": sigma},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: gaussian sigma") and repr(sigma) in err


def test_green_negative_index_as_separate_argument(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 2, "counts": [16, 16], "half_extents": [4.0, 4.0]},
        operator={"type": "differential", "coefficients": {"0,0": 1, "2,0": -1, "0,2": -1}},
        output={"directory": str(tmp_path / "a")},
    )
    assert main(["green", "--config", cfg, "--index", "-3.5,0.5", "--index", "-1.0,-2.0"]) == 0
    cfg2 = json.loads((tmp_path / "run.json").read_text())
    cfg2["output"]["directory"] = str(tmp_path / "b")
    cfg2 = write_config(tmp_path / "run2.json", **cfg2)
    assert main(["green", "--config", cfg2, "--index=-3.5,0.5", "--index=-1.0,-2.0"]) == 0
    for name in ("green_000.csv", "green_001.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["indices"] == [[-3.5, 0.5], [-1.0, -2.0]]


def test_usage_errors_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", grid=GRID_64_PI, operator=DDX)
    for argv in (
        ["green", "--config", cfg],
        ["green", "--config", cfg, "--index"],
        ["solve"],
        ["nonsense"],
        [],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        assert "usage:" in capsys.readouterr().err


def test_samples_datum_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator=DDX,
        datum={"kind": "sin", "k": 1.0},
        output={"directory": str(out)},
    )
    assert main(["solve", "--config", cfg]) == 0
    # feed the solution back in as a sample file and apply the identity
    cfg2 = write_config(
        tmp_path / "run2.json",
        grid=GRID_64_PI,
        operator={"type": "diagonal", "family": "fourier", "symbol": {"name": "one"}},
        datum={"kind": "samples", "path": str(out / "solution.csv")},
        output={"directory": str(tmp_path / "out2")},
    )
    assert main(["expand", "--config", cfg2]) == 0
    _, before = read_csv_samples(out / "solution.csv")
    _, after = read_csv_samples(tmp_path / "out2" / "expansion.csv")
    np.testing.assert_allclose(after, before, atol=1e-10)


def test_verify_suite_exit_codes():
    assert main(["verify", "identity"]) == 0
    assert main(["verify", "nonsense"]) == 1


def test_every_verify_check_passes_in_process():
    # the 27 checks of `verify all`, outside the CLI's silenced floating-point
    # errors, so that a numpy warning here fails under -W error
    from schwartzcalc.verify import SUITE_NAMES, run_suites

    checks = run_suites(SUITE_NAMES, 42)
    assert len(checks) == 27
    assert [c for c in checks if not c.passed] == []


def test_verify_failure_exit_code_and_report_file(monkeypatch, tmp_path, capsys):
    import schwartzcalc.cli as cli
    import schwartzcalc.verify as verify

    monkeypatch.setattr(
        verify, "run_suites", lambda names, seed: [verify.Check("s", "bad", 2.0, 1.0)]
    )
    path = tmp_path / "report.txt"
    assert cli.main(["verify", "identity", "--report", str(path)]) == 3
    text = path.read_text()
    assert "FAIL" in text and "summary: 0 passed, 1 failed" in text
    assert capsys.readouterr().out == text


def child_env(**extra):
    """Environment for a ``python -m schwartzcalc`` child: it does not get
    pytest's pythonpath, so the checkout's ``src/`` is put in front."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_child_code(code):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )


def test_importing_the_cli_leaves_the_verify_suites_unimported():
    run = run_child_code(
        "import sys, schwartzcalc.cli; print('schwartzcalc.verify' in sys.modules)"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_run_freezes_the_heap_before_the_command_and_exits_with_its_code():
    # ``main`` replaced in the child: it reports the freeze count it sees
    run = run_child_code(
        "import gc, schwartzcalc.cli as cli\n"
        "print(gc.get_freeze_count())\n"
        "def main(argv=None):\n"
        "    print(gc.get_freeze_count())\n"
        "    return 3\n"
        "cli.main = main\n"
        "cli.run()\n"
    )
    assert run.returncode == 3, run.stderr
    before, during = map(int, run.stdout.split())
    assert before == 0 and during > 0


def test_verify_all_subprocess_deterministic():
    env = child_env(SCHWARTZ_SEED="42")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "schwartzcalc", "verify", "all"],
            capture_output=True,
            env=env,
        )
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert b"summary:" in runs[0].stdout


# p^400 overflows on the dual grid of 1024 nodes over [-1, 1): |p| <= 512 pi
OVERFLOWING = {"type": "differential", "coefficients": {"400": 1.0}}
GRID_1024 = {"dim": 1, "counts": [1024], "half_extents": [1.0]}


def test_overflowing_symbol_exits_1_with_one_line_and_no_infinity(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_1024,
        operator=OVERFLOWING,
        datum={"kind": "gaussian", "sigma": 0.2},
        output={"directory": str(out)},
    )
    run = subprocess.run(
        [sys.executable, "-m", "schwartzcalc", "solve", "--config", cfg],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 1
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1 and "not finite" in lines[0], run.stderr
    for written in out.iterdir():
        assert "Infinity" not in written.read_text()


@pytest.mark.parametrize("command", [["green", "--index", "0"], ["expand"]])
def test_overflowing_symbol_exits_1_in_green_and_expand(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_1024,
        operator=OVERFLOWING,
        datum={"kind": "gaussian", "sigma": 0.2},
        output={"directory": str(tmp_path / "out")},
    )
    assert main([command[0], "--config", cfg] + command[1:]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_samples_csv_is_a_config_error(tmp_path, capsys, bad):
    samples = tmp_path / "datum.csv"
    rows = ["x0,re,im"] + [f"{-4.0 + 0.5 * k!r},1.0,0.0" for k in range(16)]
    rows[6] = f"-1.5,0.5,{bad}"
    samples.write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [16], "half_extents": [4.0]},
        operator={"type": "diagonal", "family": "fourier", "symbol": {"name": "one"}},
        datum={"kind": "samples", "path": str(samples)},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert str(samples) in err and "data row 6" in err


def test_one_field_lines_in_samples_csv_are_skipped(tmp_path):
    samples = tmp_path / "datum.csv"
    rows = ["# one field", "x0,re,im"] + [f"{-4.0 + 0.5 * k!r},{k!r},0.0" for k in range(16)]
    rows.insert(9, "# between data rows")
    samples.write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 1, "counts": [16], "half_extents": [4.0]},
        operator={"type": "multiplication", "symbol": {"name": "one"}},
        datum={"kind": "samples", "path": str(samples)},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["expand", "--config", cfg]) == 0
    _, values = read_csv_samples(tmp_path / "out" / "expansion.csv")
    np.testing.assert_array_equal(values, np.arange(16.0))


def test_symbols_near_the_top_of_the_range_divide_right(tmp_path):
    """Symbols whose parts pass half the largest double, where numpy's
    complex division alone overflows to a zero quotient (weak residual
    0.992, residual 1.0): the Green member of ``1e308 (1 + i)`` at node 0
    is ``1 / (dx a) = 5e-309 - 5e-309i`` and certifies, and the solve of
    ``1.5e308 (1 + i) - p^2`` has a residual at rounding level."""
    grid = {"dim": 1, "counts": [8], "half_extents": [4.0]}
    cfg = write_config(
        tmp_path / "green.json", grid=grid, output={"directory": str(tmp_path / "green")},
        operator={"type": "differential", "coefficients": {"0": [1e308, 1e308]}},
    )
    assert main(["green", "--config", cfg, "--index", "0"]) == 0
    report = json.loads((tmp_path / "green" / "report.json").read_text())
    assert report["max_weak_residual_all_indices"] < 1e-15
    _, member = read_csv_samples(tmp_path / "green" / "green_000.csv")
    assert member[4] == 5e-309 - 5e-309j and not member[np.arange(8) != 4].any()
    cfg = write_config(
        tmp_path / "solve.json", grid=grid, output={"directory": str(tmp_path / "solve")},
        operator={"type": "differential", "coefficients": {"0": [1.5e308, 1.5e308], "2": 1.0}},
        datum={"kind": "gaussian", "sigma": 1.0},
    )
    assert main(["solve", "--config", cfg]) == 0
    assert json.loads((tmp_path / "solve" / "report.json").read_text())["residual"] < 1e-13


BIG = int("9" * 400)  # a JSON integer that no float holds


def _error_cases(tmp_path):
    """Each case's ``solve`` config sections, or its command line and extra
    environment."""
    base = dict(grid=GRID_64_PI, operator=DDX, datum={"kind": "sin", "k": 1.0})
    (tmp_path / "a_file").write_text("")
    taken = tmp_path / "taken"
    (taken / "solution.csv").mkdir(parents=True)  # a directory cannot be opened for writing
    (tmp_path / "latin1.json").write_bytes('{"grid": "\u00e9"}'.encode("latin-1"))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "header_only.csv").write_text("x0,x1,re,im\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "list.json").write_text("[]")
    return {
        "sigma": dict(base, datum={"kind": "gaussian", "sigma": "abc"}),
        "output-parent-is-a-file": dict(base, output={"directory": str(tmp_path / "a_file" / "out")}),
        "csv-unwritable": dict(base, output={"directory": str(taken)}),
        "coefficient-overflow": dict(base, operator=dict(DDX, coefficients={"1": BIG})),
        "center-overflow": dict(base, datum={"kind": "gaussian", "center": [BIG]}),
        "sigma-overflow": dict(base, datum={"kind": "gaussian", "sigma": BIG}),
        "sigma-square-overflow": dict(base, datum={"kind": "gaussian", "sigma": 1e308}),
        "sigma-square-underflow": dict(base, datum={"kind": "gaussian", "sigma": 1e-200}),
        "sigma-negative": dict(base, datum={"kind": "gaussian", "sigma": -1.0}),
        "residual-threshold-overflow": dict(base, policy={"residual_threshold": BIG}),
        # 1e400 reads as inf; it ran in full and the report refused it (exit 1, "error: ...")
        "zero-threshold-overflow": dict(base, policy={"zero_threshold": 1e400}),
        "pair-im-overflow": dict(base, datum={"kind": "constant", "c": [1.0, BIG]}),
        "directory-not-a-string": dict(base, output={"directory": 5}),
        "path-a-list": dict(base, datum={"kind": "samples", "path": [4.0]}),
        "path-an-int": dict(base, datum={"kind": "samples", "path": 7}),  # a file descriptor
        # numpy's loader warns "input contained no data" on these
        "samples-header-only": dict(
            base, datum={"kind": "samples", "path": str(tmp_path / "header_only.csv")}
        ),
        "samples-empty": dict(base, datum={"kind": "samples", "path": str(tmp_path / "empty.csv")}),
        "samples-missing": dict(base, datum={"kind": "samples", "path": str(tmp_path / "no.csv")}),
        "samples-a-directory": dict(
            base, datum={"kind": "samples", "path": str(taken / "solution.csv")}
        ),
        "multi-index-too-long": dict(base, operator=dict(DDX, coefficients={"1,0": 1.0})),
        "multi-index-negative": dict(base, operator=dict(DDX, coefficients={"-1": 1.0})),
        "delta-off-grid": dict(base, datum={"kind": "delta", "p": [0.01]}),
        "policy-a-string": dict(base, policy="x"),
        "policy-a-list": dict(base, policy=[True]),
        "grid-2^40-nodes": dict(base, grid={"dim": 1, "counts": [2**40], "half_extents": [1.0]}),
        "grid-1e308-nodes": dict(base, grid={"dim": 1, "counts": [1e308], "half_extents": [1.0]}),
        "grid-40-axes": dict(
            grid={"dim": 40, "counts": [4] * 40, "half_extents": [1.0] * 40},
            operator={"type": "diagonal", "family": "fourier", "symbol": {"name": "one"}},
            datum={"kind": "sin", "k": [1.0] * 40},
        ),
        "config-a-directory": (["solve", "--config", str(taken)], {}),
        "config-not-utf8": (["solve", "--config", str(tmp_path / "latin1.json")], {}),
        "config-root-a-list": (["solve", "--config", str(tmp_path / "list.json")], {}),
        "config-nested-too-deep": (["solve", "--config", str(tmp_path / "deep.json")], {}),
        "seed-not-an-integer": (["verify", "identity"], {"SCHWARTZ_SEED": "abc"}),
        "seed-negative": (["verify", "identity"], {"SCHWARTZ_SEED": "-1"}),
        "unknown-suite": (["verify", "nonsense"], {}),
    }


ERROR_CASES = [
    "sigma", "output-parent-is-a-file", "csv-unwritable", "coefficient-overflow",
    "center-overflow", "sigma-overflow", "sigma-square-overflow", "sigma-square-underflow",
    "sigma-negative", "residual-threshold-overflow", "zero-threshold-overflow", "pair-im-overflow",
    "directory-not-a-string",
    "path-a-list", "path-an-int", "samples-header-only", "samples-empty", "samples-missing",
    "samples-a-directory", "multi-index-too-long", "multi-index-negative", "delta-off-grid",
    "policy-a-string", "policy-a-list", "grid-2^40-nodes",
    "grid-1e308-nodes", "grid-40-axes", "config-a-directory", "config-not-utf8",
    "config-root-a-list", "config-nested-too-deep", "seed-not-an-integer", "seed-negative",
    "unknown-suite",
]


@pytest.mark.parametrize("case", ERROR_CASES)
def test_bad_values_and_unwritable_outputs_exit_1_without_traceback(tmp_path, case):
    spec = _error_cases(tmp_path)[case]
    if isinstance(spec, dict):
        spec = ["solve", "--config", write_config(tmp_path / "run.json", **spec)], {}
    argv, env = spec
    run = subprocess.run(
        [sys.executable, "-m", "schwartzcalc", *argv],
        capture_output=True,
        text=True,
        env=child_env(**env),
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:"), run.stderr


# refusals of the subprocess tables that no other test runs in process, run
# through main as well; the subprocess runs check that no traceback reaches stderr
IN_PROCESS_REFUSALS = {
    "config-root-a-list": "config root must be a JSON object",
    "fractional-count": "grid counts must be a whole number, got 8.9",
    "grid-2^40-nodes": f"a grid of {2**40} nodes exceeds the cap of {2**24}",
    "multi-index-too-long": "multi-index '1,0' has 2 entries for a 1-dimensional grid",
    "multi-index-negative": "multi-index '-1' has negative entries",
    "delta-off-grid": "point (0.01,) is not a node of the grid (axis 0: nearest node 0)",
    "output-parent-is-a-file": "cannot create output directory {tmp}/a_file/out: [Errno 20] Not a directory",
    "seed-negative": "SCHWARTZ_SEED must be a non-negative integer, got '-1'",
}


@pytest.mark.parametrize("case", sorted(IN_PROCESS_REFUSALS))
def test_refusals_exit_1_with_one_line_in_process(tmp_path, monkeypatch, capsys, case):
    if case in _contract_cases():
        command, sections = _contract_cases()[case]
        sections = dict(sections, output={"directory": str(tmp_path / "out")})
        spec = [command, "--config", write_config(tmp_path / "run.json", **sections)], {}
    else:
        spec = _error_cases(tmp_path)[case]
    if isinstance(spec, dict):
        spec = ["solve", "--config", write_config(tmp_path / "run.json", **spec)], {}
    argv, env = spec
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + IN_PROCESS_REFUSALS[case].format(tmp=tmp_path)), err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_unwritable_report_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator=DDX,
        datum={"kind": "sin", "k": 1.0},
        output={"directory": str(out)},
    )
    assert main(["solve", "--config", cfg]) == 1
    assert "report.json" in capsys.readouterr().err
    assert main(["verify", "identity", "--report", str(out / "report.json")]) == 1


def test_expand_analyses_once_and_samples_once(monkeypatch, tmp_path):
    from schwartzcalc import FourierFamily, SymbolFunction, families

    calls = collections.Counter()
    for owner, name in (
        (SymbolFunction, "sample"),
        (FourierFamily, "coordinates_rows"),
        (FourierFamily, "superpose_rows"),
        (families, "_sample_half"),
        (families, "_fourier_analysis_real"),
        (families, "_fourier_synthesis_real"),
    ):
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator={"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}},
        datum={"kind": "gaussian", "sigma": 0.5},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["expand", "--config", cfg]) == 0
    # one analysis, one synthesis of the integrand, one symbol sample, all on
    # half spectra: the datum is real and the symbol real and even
    assert calls == {"_sample_half": 1, "_fourier_analysis_real": 1, "_fourier_synthesis_real": 1}


def _contract_cases():
    grid8 = {"dim": 1, "counts": [8], "half_extents": [1.0]}
    one = {"type": "multiplication", "symbol": {"name": "one"}}
    huge = {"type": "multiplication", "symbol": {"name": "polynomial", "terms": {"0": 1e300}}}
    base = dict(grid=grid8, operator=one, datum={"kind": "constant"})
    return {
        "non-numeric-pair": ("expand", dict(base, datum={"kind": "constant", "c": ["a", 0]})),
        "fractional-dim": ("expand", dict(base, grid=dict(grid8, dim=1.7))),
        "fractional-count": ("expand", dict(base, grid=dict(grid8, counts=[8.9]))),
        "infinite-residual-threshold": (
            "solve", dict(base, policy={"residual_threshold": math.inf})
        ),
        # each factor is finite, their product is not
        "overflowing-product": (
            "expand", dict(base, operator=huge, datum={"kind": "constant", "c": 1e300})
        ),
        # k * x overflows, then sin(inf) is invalid
        "overflowing-wave-vector": (
            "solve", dict(base, grid=dict(grid8, half_extents=[4.0]), datum={"kind": "sin", "k": 1e308})
        ),
    }


@pytest.mark.parametrize("case", sorted(_contract_cases()))
def test_malformed_values_exit_1_with_one_line(tmp_path, case):
    command, sections = _contract_cases()[case]
    out = {"directory": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "run.json", output=out, **sections)
    run = subprocess.run(
        [sys.executable, "-m", "schwartzcalc", command, "--config", cfg],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert len(run.stderr.strip().splitlines()) == 1, run.stderr


def _silent_overflow_cases():
    grid8 = {"dim": 1, "counts": [8], "half_extents": [4.0]}
    one = {"type": "multiplication", "symbol": {"name": "one"}}
    huge = {"type": "differential", "coefficients": {"0": [1.5e308, 1.5e308], "2": 1.0}}
    return {
        # (x - c)**2 overflows and exp(-inf) is 0: a valid datum
        "far-gaussian": (["solve"], dict(grid=grid8, operator=one, datum={"kind": "gaussian", "center": 1e200})),
        # |a| overflows at every node: the zero threshold stays finite
        "symbol-modulus": (["solve"], dict(grid=grid8, operator=huge, datum={"kind": "gaussian"})),
        # the complex quotient 1/a overflows on its way to an underflow
        "green-quotient": (
            ["green", "--index", "0"],
            dict(grid=grid8, operator={"type": "differential", "coefficients": {"0": [1e308, 1e308]}}),
        ),
    }


@pytest.mark.parametrize("case", sorted(_silent_overflow_cases()))
def test_overflow_inside_a_valid_run_warns_of_nothing(tmp_path, case):
    command, sections = _silent_overflow_cases()[case]
    cfg = write_config(tmp_path / "run.json", output={"directory": str(tmp_path / "out")}, **sections)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "schwartzcalc", command[0], "--config", cfg, *command[1:]],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def _boolean_cases():
    grid8 = {"dim": 1, "counts": [8], "half_extents": [1.0]}
    one = {"type": "multiplication", "symbol": {"name": "one"}}
    base = dict(grid=grid8, operator=one, datum={"kind": "constant"})

    def datum(**fields):
        return dict(base, datum=fields)

    return {
        "dim": dict(base, grid=dict(grid8, dim=True)),
        "count": dict(base, grid={"dim": 2, "counts": [8, True], "half_extents": [1.0, 1.0]}),
        "half-extent": dict(base, grid=dict(grid8, half_extents=[True])),
        "coefficient": dict(base, operator={"type": "differential", "coefficients": {"0": True}}),
        "polynomial-term": dict(
            base, operator={"type": "multiplication",
                            "symbol": {"name": "polynomial", "terms": {"0": True}}}
        ),
        "pair": datum(kind="constant", c=[1.0, False]),
        "constant": datum(kind="constant", c=True),
        "sigma": datum(kind="gaussian", sigma=True),
        "center": datum(kind="gaussian", center=[False]),
        "k": datum(kind="sin", k=True),
        "zero-threshold": dict(base, policy={"zero_threshold": True}),
        "residual-threshold": dict(base, policy={"residual_threshold": False}),
    }


@pytest.mark.parametrize("case", sorted(_boolean_cases()))
def test_json_booleans_are_not_numbers(tmp_path, case):
    out = {"directory": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "run.json", output=out, **_boolean_cases()[case])
    run = subprocess.run(
        [sys.executable, "-m", "schwartzcalc", "solve", "--config", cfg],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert len(run.stderr.strip().splitlines()) == 1, run.stderr


def test_solve_of_data_near_1e160_reports_a_true_residual(tmp_path):
    # the squares of the L2 norm overflow here; the residual used to read 0.0
    # under a numpy overflow warning
    n = 64
    x = -math.pi + 2.0 * math.pi / n * np.arange(n)
    samples = tmp_path / "d.csv"
    samples.write_text(
        "x0,re,im\n" + "".join(f"{xi!r},{v!r},0.0\n" for xi, v in
                              zip(x.tolist(), (1e160 * np.sin(3.0 * x)).tolist()))
    )
    cfg = write_config(
        tmp_path / "run.json",
        grid=GRID_64_PI,
        operator={"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}},
        datum={"kind": "samples", "path": str(samples)},
        output={"directory": str(tmp_path / "out")},
    )
    run = subprocess.run(
        [sys.executable, "-m", "schwartzcalc", "solve", "--config", cfg],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 0
    assert run.stderr == ""
    assert len(run.stdout.strip().splitlines()) == 1
    residual = json.loads((tmp_path / "out" / "report.json").read_text())["residual"]
    assert 0.0 < residual < 1e-12


def _one_line_exit_1(tmp_path, argv, **sections):
    cfg = write_config(tmp_path / "run.json", output={"directory": str(tmp_path / "out")}, **sections)
    run = subprocess.run(
        [sys.executable, "-m", "schwartzcalc", argv[0], "--config", cfg] + argv[1:],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr, run.stderr
    assert len(run.stderr.strip().splitlines()) == 1, run.stderr
    return run.stderr


def test_overflowing_quotient_in_solve_prints_no_numpy_warning(tmp_path):
    # 1e200 / 1e-200 overflows in the division, then in the synthesis
    err = _one_line_exit_1(
        tmp_path,
        ["solve"],
        grid={"dim": 1, "counts": [64], "half_extents": [3.0]},
        operator={"type": "differential", "coefficients": {"0": 1e-200}},
        datum={"kind": "constant", "c": 1e200},
    )
    assert "samples must all be finite" in err


@pytest.mark.parametrize(
    "coefficients, datum, what",
    [
        ({"0": 1e-320}, {"kind": "gaussian", "sigma": 1.0}, "the quotient"),
        ({"0": 1e-300, "2": -1e-300}, {"kind": "constant", "c": 1e300}, "the quotient"),
        ({"0": 1, "2": -1}, {"kind": "constant", "c": [1e308, 1e308]}, "the datum's coefficient"),
    ],
)
def test_overflowing_solve_names_the_array_and_the_node(tmp_path, coefficients, datum, what):
    err = _one_line_exit_1(
        tmp_path,
        ["solve"],
        grid={"dim": 1, "counts": [64], "half_extents": [3.0]},
        operator={"type": "differential", "coefficients": coefficients},
        datum=datum,
    )
    assert err.startswith(f"error: {what} at index node (")
    assert err.rstrip().endswith("samples must all be finite")


def test_overflowing_reciprocal_in_green_prints_no_numpy_warning(tmp_path):
    # 1 / 1e-310 overflows to inf, and inf times a zero point-mass entry is nan
    err = _one_line_exit_1(
        tmp_path,
        ["green", "--index", "0"],
        grid={"dim": 1, "counts": [64], "half_extents": [3.0]},
        operator={"type": "multiplication", "symbol": {"name": "polynomial", "terms": {"0": 1e-310}}},
    )
    assert "samples must all be finite" in err


def test_green_above_the_dense_cap_runs_on_the_dirac_diagonal(tmp_path):
    # 72^2 = 5184 nodes: a multiplication operator's Green pairing used to
    # need a 5184 x 5184 table (410 MiB, held several times) and exited 1;
    # its L G is diagonal, so the build holds a few arrays of the grid's size
    cfg = write_config(
        tmp_path / "run.json",
        grid={"dim": 2, "counts": [72, 72], "half_extents": [4.0, 4.0]},
        operator={
            "type": "multiplication",
            "symbol": {"name": "polynomial", "terms": {"0,0": 1, "2,0": 1, "0,2": 1}},
        },
        output={"directory": str(tmp_path / "out")},
    )
    tracemalloc.start()
    try:
        assert main(["green", "--config", cfg, "--index", "0,0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "ok" and report["route"] == "reciprocal"
    assert report["max_weak_residual_all_indices"] < 1e-12


TINY_SYMBOL_RUN = dict(
    grid={"dim": 1, "counts": [1024], "half_extents": [20.0]},
    operator={
        "type": "diagonal",
        "family": "fourier",
        "symbol": {"name": "polynomial", "terms": {"0": 1e-307, "2": 1e-307}},
    },
    datum={"kind": "gaussian", "sigma": 1.0},
)


def test_green_whose_weak_residual_overflows_exits_1_without_a_report(tmp_path):
    # L G_p of the finite member overflows in its analysis: the residual is
    # nan, and the family is not certified (it was, with NaN, exit 0)
    err = _one_line_exit_1(tmp_path, ["green", "--index", "0"], **TINY_SYMBOL_RUN)
    assert err.startswith("error: the weak residual at index node (-20.0,) is nan")
    assert not (tmp_path / "out" / "report.json").exists()


def test_solve_whose_residual_overflows_reports_it_rescaled(tmp_path):
    # the solution is finite (max about 6.6e306), but the analysis of u
    # overflows: the residual is measured again on u and d scaled by one
    # power of two (it read nan, and the strict report refused it, exit 1)
    cfg = write_config(tmp_path / "run.json", output={"directory": str(tmp_path / "out")}, **TINY_SYMBOL_RUN)
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert 0.0 < report["residual"] < 1e-10
    assert (tmp_path / "out" / "solution.csv").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, [1.0, -math.inf]])
def test_report_that_is_not_finite_is_refused_before_the_file_opens(tmp_path, value, capsys):
    from schwartzcalc import NonFiniteSamples, make_grid, zero_distribution
    from schwartzcalc.cli import _finish

    def never():
        raise AssertionError("a CSV was built for a refused report")

    report = {"status": "ok", "residual": value, "route": "reciprocal"}
    csvs = {"solution.csv": never, "other.csv": lambda: zero_distribution(make_grid(1, [4], [1.0]))}
    with pytest.raises(NonFiniteSamples, match=r"the report's 'residual' is not finite"):
        _finish(tmp_path, report, csvs, 0, "done")
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "")


def test_solve_whose_report_is_refused_writes_no_file(tmp_path, monkeypatch, capsys):
    import types

    from schwartzcalc import cli

    def nan_residual(*args, _solve=cli._solve):
        result, applied = _solve(*args)
        return types.SimpleNamespace(solution=result.solution, residual=math.nan), applied

    monkeypatch.setattr(cli, "_solve", nan_residual)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "run.json", grid=GRID_64_PI, operator=DDX, datum={"kind": "sin", "k": 1.0},
        output={"directory": str(out)},
    )
    assert main(["solve", "--config", cfg]) == 1
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the report's 'residual' is not finite; a report holds finite numbers only\n"


def test_green_whose_report_is_refused_writes_no_file(tmp_path, monkeypatch, capsys):
    import dataclasses

    from schwartzcalc import cli

    def nan_residuals(*args, _build=cli.green_family_divided):
        result = _build(*args)
        return dataclasses.replace(result, weak_residuals=np.full_like(result.weak_residuals, math.nan))

    monkeypatch.setattr(cli, "green_family_divided", nan_residuals)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "run.json", grid=GRID_64_PI,
        operator={"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}},
        output={"directory": str(out)},
    )
    assert main(["green", "--config", cfg, "--index", "0", "--index", "-3.141592653589793"]) == 1
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the report's ")
    assert captured.err.count("\n") == 1
