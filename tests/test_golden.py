"""Golden-hash guard: fixed CLI configs must keep writing the same bytes.

Each case runs one ``schwartzcalc`` subcommand in-process on a fixed config
and compares the sha256 of every file it writes (each CSV and
``report.json``) with the digest recorded here.  The digests were taken from
the program before the solve core was reworked; a change that alters any
output byte fails this test.  Refresh a digest only for a change that is
meant to alter outputs, and say so where the change is recorded.  The two
``solve-*-gaussian`` digests were refreshed once, when real data with a real,
even symbol moved to half spectra (solutions within 3e-16 relative, ``im``
now exactly 0.0).  Every solve ``report.json`` that reports a residual was
refreshed once more, when the residual moved from the samples to the
coefficients by the discrete Parseval identity: only its ``residual`` value
moved, by the rounding of the synthesis it saves; every CSV kept its bytes.
The table ``verify all`` prints for seed 42 is pinned the same way.  The
``green-1d-dirac-divided`` and ``green-1d-dirac-not-divisible`` digests were
recorded before the Green division moved into the solver's rule and held
across it; ``green-1d-complex-symbol`` was recorded after it (a complex
symbol's members moved then, by at most a rounding).  The ``expand-1d``,
``green-1d`` and ``green-2d`` digests were refreshed once, when real data
under a real, even Fourier symbol moved to half spectra in the apply and the
Green members: the expansion moved by 2.9e-15 and its integrand by 8.8e-15
of their largest values, the members by 2.4e-16 of theirs, each within a
rounding of ``tests/naive.py``'s literal sums and bitwise its half-spectrum
references; the expansion's and the members' ``im`` columns are now 0.0.
"""

import hashlib
import json
import math

import pytest

from schwartzcalc.cli import main

# every report.json a test here writes must parse as strict JSON
pytestmark = pytest.mark.usefixtures("strict_reports")

HELMHOLTZ_1D = {"type": "differential", "coefficients": {"0": 1.0, "2": -1.0}}
HELMHOLTZ_2D = {
    "type": "differential",
    "coefficients": {"0,0": 1.0, "2,0": -1.0, "0,2": -1.0},
}
GRID_1D = {"dim": 1, "counts": [64], "half_extents": [10.0]}
GRID_1D_PI = {"dim": 1, "counts": [64], "half_extents": [math.pi]}
GRID_2D = {"dim": 2, "counts": [16, 16], "half_extents": [4.0, 4.0]}
DIRAC_X2 = {
    "grid": {"dim": 1, "counts": [32], "half_extents": [5.0]},
    "operator": {
        "type": "multiplication",
        "symbol": {"name": "polynomial", "terms": {"2": 1.0}},
    },
}

# name -> (argv after the subcommand's --config, config sections, exit code)
CASES = {
    "solve-1d-gaussian": (
        ["solve"],
        {
            "grid": GRID_1D,
            "operator": HELMHOLTZ_1D,
            "datum": {"kind": "gaussian", "sigma": 1.5, "center": [0.5]},
        },
        0,
    ),
    "solve-1d-derivative-of-sin": (
        ["solve"],
        {
            "grid": GRID_1D_PI,
            "operator": {"type": "differential", "coefficients": {"1": 1.0}},
            "datum": {"kind": "sin", "k": 1.0},
        },
        0,
    ),
    "solve-1d-derivative-of-constant": (
        ["solve"],
        {
            "grid": GRID_1D_PI,
            "operator": {"type": "differential", "coefficients": {"1": 1.0}},
            "datum": {"kind": "constant", "c": 1.0},
        },
        2,
    ),
    "solve-1d-diagonal-delta": (
        ["solve"],
        {
            "grid": GRID_1D,
            "operator": {
                "type": "diagonal",
                "family": "fourier",
                "symbol": {"name": "polynomial", "terms": {"0": 2.0, "2": [1.0, 0.5]}},
            },
            "datum": {"kind": "delta", "p": [-2.5]},
            "policy": {"zero_threshold": 1e-9, "residual_threshold": 1e-8},
        },
        0,
    ),
    "solve-1d-multiplication": (
        ["solve"],
        {
            "grid": GRID_1D,
            "operator": {
                "type": "multiplication",
                "symbol": {"name": "polynomial", "terms": {"0": 1.0, "2": 1.0}},
            },
            "datum": {"kind": "cos", "k": 0.6},
        },
        0,
    ),
    "solve-2d-gaussian": (
        ["solve"],
        {
            "grid": GRID_2D,
            "operator": HELMHOLTZ_2D,
            "datum": {"kind": "gaussian", "sigma": 0.8, "center": [0.5, -1.0]},
        },
        0,
    ),
    "solve-2d-derivative-of-sin": (
        ["solve"],
        {
            "grid": {"dim": 2, "counts": [16, 16], "half_extents": [math.pi, math.pi]},
            "operator": {"type": "differential", "coefficients": {"1,0": 1.0, "0,1": 2.0}},
            "datum": {"kind": "sin", "k": [1.0, 2.0]},
        },
        0,
    ),
    "green-1d": (
        ["green", "--index", "-2.5", "--index", "0"],
        {"grid": GRID_1D, "operator": HELMHOLTZ_1D},
        0,
    ),
    "green-1d-dirac": (
        ["green", "--index", "-1.25"],
        {
            "grid": {"dim": 1, "counts": [32], "half_extents": [5.0]},
            "operator": {
                "type": "multiplication",
                "symbol": {"name": "polynomial", "terms": {"0": 1.0, "2": 1.0}},
            },
        },
        0,
    ),
    # x^2 vanishes at the node 0, where the point mass of the member at 0
    # sits: divisible only under the loose policy, with that member 0
    "green-1d-dirac-divided": (
        ["green", "--index", "-1.25", "--index", "0"],
        dict(DIRAC_X2, policy={"residual_threshold": 1.0}),
        0,
    ),
    "green-1d-dirac-not-divisible": (
        ["green", "--index", "-1.25", "--index", "0"],
        DIRAC_X2,
        2,
    ),
    "green-1d-complex-symbol": (
        ["green", "--index", "-2.5", "--index", "0"],
        {
            "grid": GRID_1D,
            "operator": {
                "type": "diagonal",
                "family": "fourier",
                "symbol": {
                    "name": "polynomial",
                    "terms": {"0": 2.0, "1": [0.0, 0.5], "2": [1.0, -0.25]},
                },
            },
        },
        0,
    ),
    "green-2d": (
        ["green", "--index", "-1.5,0.5", "--index", "0,0"],
        {"grid": GRID_2D, "operator": HELMHOLTZ_2D},
        0,
    ),
    "expand-1d": (
        ["expand"],
        {
            "grid": GRID_1D,
            "operator": HELMHOLTZ_1D,
            "datum": {"kind": "gaussian", "sigma": 1.0},
        },
        0,
    ),
    "expand-2d": (
        ["expand"],
        {
            "grid": GRID_2D,
            "operator": {
                "type": "diagonal",
                "family": "fourier",
                "symbol": {"name": "polynomial", "terms": {"0,0": 1.0, "1,1": [0.0, 1.0]}},
            },
            "datum": {"kind": "cos", "k": [0.5, 1.0]},
        },
        0,
    ),
}

EXPECTED = {
    "expand-1d": {
        "expansion.csv": "39a1719b682338d3eb093245f8f225c271316eefc4d32c97428200b4616bbbdd",
        "integrand.csv": "d1ffff4f0b4f16a594b8712088aa976b2cf263c741731661a0503f896f602b9b",
        "report.json": "c052d28f6196c498ea8788ab9c3b2d3cf823f8586bc64dafe3ab773de9c69a92",
    },
    "expand-2d": {
        "expansion.csv": "78a98c7699c7d0ebf5626435165a41f049051ed67de6641c762d67236e50ae99",
        "integrand.csv": "5e414489685737d7d092ba807c8fe1192c699904c218470c295bf3e5b3fca10e",
        "report.json": "2a48c8ca68fb471a8a1d5624fe52d5ef692bfa1d8887880e275d405aee8ae228",
    },
    "green-1d": {
        "green_000.csv": "b36df3b08a22c803e1207fbd91640aa9b5ff085c1f7d370fca29f7bebc0c521e",
        "green_001.csv": "72b85c2275df34879c16cb3f4e9dc8feabfcefed44a228be4ccb54694cf28f64",
        "report.json": "2e2cf3aa089038bbf8c6ba1e92eb6491f56c1e03de8c8b615ebe5c3fba646c40",
    },
    "green-1d-dirac": {
        "green_000.csv": "623bcfec673c06a5b5907b7c4b97b64b9710349f6914f4c453b3ebd9432706d7",
        "report.json": "fc1052c31aab1cff31021d628c2bdd7601ff3455e2448aff497dd4c96d0eabce",
    },
    "green-1d-complex-symbol": {
        "green_000.csv": "1000c525b7756a39b4fcec1205f502a36dc3f94ce2890276c02df7c6fce446fd",
        "green_001.csv": "56df05d9b14978b541058969ac233cc34c357751d3feac9993fb837f66d668a1",
        "report.json": "273be6af99b0ee6b55c8eed733a4936597d97d538e49658badbe9172a6ab44d2",
    },
    "green-1d-dirac-divided": {
        "green_000.csv": "db864c63a5363c2f37f92679921e0c3fca575b66bcfe2fb0af269ae8909ae96d",
        "green_001.csv": "92ba8505c610ca60d7caa9e41b2609febd0b57f844882ba178ac211a6a61d138",
        "report.json": "b08759e645d98d291472ae940f8f5f47913a41b5caf0b3b0d847234fe73fd003",
    },
    "green-1d-dirac-not-divisible": {
        "report.json": "1e40baffacc573befdb414fbe9a401579c5bb65b9df4dfab8159384a489253a9",
    },
    "green-2d": {
        "green_000.csv": "6ba977fd5823091c52faba2107c6bd73e743d05266e0e25eafdaf748ad337633",
        "green_001.csv": "a3c4630b525c30f788a0d3dbb06a1df7d9f236b5c60dcc66d2931c7ffdf15361",
        "report.json": "5df4a708fcc2b6dfb6d9de8ffcc023a9ac4a1e4feea0dbbafad2c6f096ff0cba",
    },
    "solve-1d-derivative-of-constant": {
        "report.json": "151216a961e355cd33161652c112a48e5a1852a4cdec5965c6a7bbbf6a44e64b",
    },
    "solve-1d-derivative-of-sin": {
        "report.json": "2e23c9d51ce3c06059b36cf63b4725a9805c7826e1f1285e82b08b74a03cd932",
        "solution.csv": "637e3dc80ad15b7523da2b3c2645faacdcd9194b49f112d3c3d15b122b34d0c1",
    },
    "solve-1d-diagonal-delta": {
        "report.json": "365b8d8a13a7b6ddff45c69640fee8774a9b2d689b17ae44c622bc992ad5c2ca",
        "solution.csv": "da013298634849ed961d9d24b20cbeb815046c28d605395c4feb7f9766b4afae",
    },
    "solve-1d-gaussian": {
        "report.json": "884db15f1f9d07ff30bdaad6beadd66eb1b39e2a89815451dcb6cabc9a642cb9",
        "solution.csv": "1e228ae6ed06919e55e52b815ac07d17695ba18a25673e687fd115aef1ad7842",
    },
    "solve-1d-multiplication": {
        "report.json": "18ffdf93fbba911988de6b0487c32be6841c38e8367b049977bde91c4359a603",
        "solution.csv": "325a9e8374969ae01ee9645d2b43321f2cd8939db5bb63b647a735b78abdac9d",
    },
    "solve-2d-derivative-of-sin": {
        "report.json": "144044b3a0dfb6c497480d05f2b07dd61d33d7050c1b379e123c770a772517e6",
        "solution.csv": "49046945d6c00348fa90ca31ef6b34c055093cb55733cf5a7263a3edec38b433",
    },
    "solve-2d-gaussian": {
        "report.json": "e4b87a8cce1239b188ea66b53be6cb837bdd4fff551a3ee8394b0c262902a9e9",
        "solution.csv": "3bd97cb337164c0e1ee93346d3535a3380a28d94de386322ac5d364710ed87a7",
    },
}


def run_case(tmp_path, name):
    """Run one case; returns its exit code and ``{file name: sha256}``."""
    argv, sections, _ = CASES[name]
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(sections, output={"directory": str(out)})))
    code = main([argv[0], "--config", str(config)] + argv[1:])
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    return code, digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden_hashes(tmp_path, name):
    code, digests = run_case(tmp_path, name)
    assert code == CASES[name][2]
    assert digests == EXPECTED[name]


def samples_text():
    """A 2-d samples CSV (16 x 8 nodes on [-4, 4) x [-2, 2)) with a header
    and a comment line, written with ``repr`` of Python floats."""
    lines = ["x0,x1,re,im", "# smooth field, row-major, re, im"]
    for i in range(16):
        x = -4.0 + 0.5 * i
        for j in range(8):
            y = -2.0 + 0.5 * j
            g = math.exp(-(x * x + 2.0 * y * y) / 3.0)
            lines.append(f"{x!r},{y!r},{g * math.cos(x)!r},{0.25 * g * y!r}")
    return "\n".join(lines) + "\n"


SAMPLES_SECTIONS = {
    "grid": {"dim": 2, "counts": [16, 8], "half_extents": [4.0, 2.0]},
    "operator": HELMHOLTZ_2D,
    # relative, so that the path recorded in report.json does not vary
    "datum": {"kind": "samples", "path": "datum.csv"},
}

SAMPLES_EXPECTED = {
    "report.json": "1098ead5460413fa2d5644df3a00795104f37f58fcaa2b17e86aec5844577f05",
    "solution.csv": "8d38f00a7d438967e61db8f1128de5ec641bcd4465a3fc862c02bb102dd2d65c",
}


def test_samples_datum_outputs_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "datum.csv").write_text(samples_text())
    (tmp_path / "run.json").write_text(
        json.dumps(dict(SAMPLES_SECTIONS, output={"directory": "out"}))
    )
    assert main(["solve", "--config", "run.json"]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == SAMPLES_EXPECTED


# ``SCHWARTZ_SEED=42 python -m schwartzcalc verify all``: the whole table of
# 27 passing checks, down to every printed error and tolerance
VERIFY_ALL_EXPECTED = "fbf0683a1a9d2a3bef222954f7966713bac8817be2ffd4292e467cbd635ca371"


def test_verify_all_table_matches_golden_hash(monkeypatch, capsys):
    monkeypatch.setenv("SCHWARTZ_SEED", "42")
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("summary: 27 passed, 0 failed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_EXPECTED
