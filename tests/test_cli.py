import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from schwartzcalc.cli import main


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

    for name in ("left_inverse_family", "green_family", "green_family_divided"):
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


def test_verify_failure_exit_code_and_report_file(monkeypatch, tmp_path, capsys):
    import schwartzcalc.cli as cli
    from schwartzcalc.verify import Check

    monkeypatch.setattr(
        cli, "run_suites", lambda names, seed: [Check("s", "bad", 2.0, 1.0)]
    )
    path = tmp_path / "report.txt"
    assert cli.main(["verify", "identity", "--report", str(path)]) == 3
    text = path.read_text()
    assert "FAIL" in text and "summary: 0 passed, 1 failed" in text
    assert capsys.readouterr().out == text


def test_verify_all_subprocess_deterministic():
    env = dict(os.environ, SCHWARTZ_SEED="42")
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
