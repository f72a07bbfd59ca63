"""The CLI's CSV writer and samples reader against their first, literal forms.

``naive.write_distribution_csv`` formats one row at a time from
``grid.points()`` and ``naive.read_samples_csv`` holds every row of the file;
the CLI's versions must write the same bytes and read the same values.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naive
from schwartzcalc import ConfigError, GridDistribution, make_grid
from schwartzcalc import cli

BLOCK = cli._CSV_BLOCK_ROWS

# signed zeros, subnormals, and magnitudes near the ends of the double range
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.1e-308, 1e300, -1e300,
           1e-300, -3.7e-300, 1.7976931348623157e308, -2.2250738585072014e-308]


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def special_distribution(grid, seed):
    rng = np.random.default_rng(seed)
    samples = np.empty(grid.size, dtype=np.complex128)
    # set the parts directly: complex arithmetic would lose signed zeros
    samples.real = rng.standard_normal(grid.size) * 10.0 ** rng.integers(-5, 5, grid.size)
    samples.imag = rng.standard_normal(grid.size)
    for part in (samples.real, samples.imag):
        where = rng.choice(grid.size, size=grid.size // 3, replace=False)
        part[where] = rng.choice(SPECIAL, size=where.size)
        part[: len(SPECIAL)] = SPECIAL
    return GridDistribution(grid, samples)


@pytest.mark.parametrize(
    "counts, half_extents",
    [
        ([2 * BLOCK + 10], [7.3]),  # several blocks in one slab
        ([12, 10], [math.pi, 2.5]),
        ([4, BLOCK + 6], [1e-3, 3.3]),  # a slab longer than a block
        ([4, 6, 10], [1.0, 2.0 / 3.0, 1e5]),  # many slabs per block, unequal counts
    ],
)
def test_writer_is_byte_identical_to_the_row_by_row_writer(tmp_path, counts, half_extents):
    grid = make_grid(len(counts), counts, half_extents)
    dist = special_distribution(grid, seed=sum(counts))
    cli.write_distribution_csv(tmp_path / "fast.csv", dist)
    naive.write_distribution_csv(tmp_path / "literal.csv", dist)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "literal.csv").read_bytes()
    assert fast.count(b"\n") == grid.size + 1
    assert b"-0.0" in fast and b"5e-324" in fast and b"1e+300" in fast


def read_both(tmp_path, text, counts=(4,)):
    path = tmp_path / "datum.csv"
    path.write_bytes(text.encode("utf-8"))
    grid = make_grid(len(counts), counts, [1.0] * len(counts))
    return cli._read_samples_csv(str(path), grid).samples, naive.read_samples_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        # quoted fields, one holding a comma
        '"x0","re","im"\n"-1.0","0.5","-0.25"\n"a, b",1.5,"2"\n-0.5,"-0.0","0.0"\n0,3,4\n',
        # CRLF line ends
        "x0,re,im\r\n-1.0,0.5,-0.25\r\n-0.5,1.5,2.0\r\n0.0,-0.0,0.0\r\n0.5,3.0,4.0\r\n",
        # blank lines and one-field lines anywhere
        "\n# first line\nx0,re,im\n\n-1.0,0.5,-0.25\n7\n-0.5,1.5,2.0\n\n0.0,-0.0,0.0\n0.5,3,4\n\n",
        # extra leading columns
        "id,x0,x1,re,im\n1,-1.0,0.0,0.5,-0.25\n2,-0.5,0.0,1.5,2.0\n3,0.0,0.0,-0.0,0.0\n4,0.5,0.0,3,4\n",
    ],
    ids=["quoted", "crlf", "blank-and-short", "leading-columns"],
)
def test_reader_reads_what_the_literal_reader_reads(tmp_path, text):
    fast, literal = read_both(tmp_path, text)
    assert same_bits(fast, literal)
    assert same_bits(fast.view(np.float64), np.array([0.5, -0.25, 1.5, 2.0, -0.0, 0.0, 3.0, 4.0]))


def test_reader_numbers_data_rows_only(tmp_path):
    text = "x0,re,im\n# note, re, im\n-1.0,0.5,0.0\n\n-0.5,1.5,2.0\n#\n0.0,nan,1.0\n0.5,3,4\n"
    with pytest.raises(ConfigError, match="data row 3 holds a non-finite value"):
        read_both(tmp_path, text)
    with pytest.raises(ConfigError, match="has 4 data rows, grid has 6 nodes"):
        read_both(tmp_path, text.replace("nan", "1.0"), counts=(6,))


def test_reader_reports_undecodable_bytes_as_a_config_error(tmp_path):
    path = tmp_path / "datum.csv"
    path.write_bytes(b"x0,re,im\n-1.0,0.5,\xff\n")
    with pytest.raises(ConfigError, match="not a readable CSV"):
        cli._read_samples_csv(str(path), make_grid(1, [4], [1.0]))


# -- property test: generated samples files, CLI contract and oracle agreement

FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
VALUE = st.tuples(st.sampled_from(["{}", '"{}"', " {} "]), FINITE).map(lambda t: t[0].format(t[1]))
LEAD = st.lists(st.sampled_from(["-1.0", "7", "id", '"a, b"', '""']), max_size=2)
DATA_ROW = st.tuples(LEAD, VALUE, VALUE).map(lambda t: ",".join(t[0] + [t[1], t[2]]))
OTHER_LINE = st.one_of(
    st.sampled_from(["x0,re,im", '"x0","re","im"', "# comment", "# a, b, re, im", "", "#"]),
    FINITE,  # one field
    st.sampled_from(["nan", "inf", "-inf", "1e400"]).map(lambda v: f"0.0,{v},0.5"),
    st.text(alphabet=',"# ab1.e-\r', max_size=12),
)


@st.composite
def samples_files(draw):
    lines = [draw(DATA_ROW) for _ in range(draw(st.integers(3, 5)))]
    for _ in range(draw(st.integers(0, 5))):
        lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_LINE))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=samples_files())
def test_samples_reader_property(tmp_path, text):
    path = tmp_path / "datum.csv"
    path.write_bytes(text.encode("utf-8"))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "grid": {"dim": 1, "counts": [4], "half_extents": [1.0]},
        "operator": {"type": "multiplication", "symbol": {"name": "one"}},
        "datum": {"kind": "samples", "path": str(path)},
        "output": {"directory": str(tmp_path / "out")},
    }))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["expand", "--config", str(config)])
    lines = err.getvalue().splitlines()
    expected = naive.read_samples_csv(path)
    if expected.size != 4:
        assert code == 1 and len(lines) == 1
        assert f"has {expected.size} data rows" in lines[0]
    elif not np.isfinite(expected).all():
        assert code == 1 and len(lines) == 1
        assert f"data row {int(np.argmin(np.isfinite(expected))) + 1} " in lines[0]
    else:
        assert code == 0 and lines == []
        grid = make_grid(1, [4], [1.0])
        assert same_bits(cli._read_samples_csv(str(path), grid).samples, expected)


# -- property test: generated configs keep the CLI contract

BIG = int("9" * 400)  # a JSON integer that no float holds
WRONG = [None, True, False, BIG, -BIG, 2**40, 0, -1, 1.5, 1e308, -1e308, 5e-324,
         math.inf, -math.inf, math.nan, "", "x", "8", "1e400", "nan", [], {}, [True],
         [BIG], [math.nan], [1e308], [[1.0, 2.0]], {"a": 1}]
MISSING = object()
OPERATORS = [
    {"type": "differential", "coefficients": {"0": 1.0, "2": [-1.0, 0.0]}},
    {"type": "differential", "coefficients": {"1": 1.0}},  # zero at p = 0: exit 2 on most data
    {"type": "diagonal", "family": "fourier",
     "symbol": {"name": "polynomial", "terms": {"0": 1.0, "2": 1.0}}},
    {"type": "diagonal", "family": "dirac", "symbol": {"name": "one"}},
    {"type": "multiplication",
     "symbol": {"name": "polynomial", "terms": {"0": 2.0, "1": [0.0, 1.0]}}},
]
DATA = [
    {"kind": "gaussian", "sigma": 0.5, "center": [0.25]},
    {"kind": "sin", "k": 1.0},
    {"kind": "cos", "k": [2.0]},
    {"kind": "constant", "c": [1.0, 0.5]},
    {"kind": "delta", "p": [0.5]},
    {"kind": "samples", "path": "datum.csv"},
]


def field_paths(node, prefix=()):
    """The path of every key or list position below ``node``, outermost first."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from field_paths(child, prefix + (key,))


@st.composite
def broken_configs(draw):
    cfg = {
        "grid": {"dim": 1, "counts": [8], "half_extents": [2.0]},
        "operator": draw(st.sampled_from(OPERATORS)),
        "datum": draw(st.sampled_from(DATA)),
        "policy": {"zero_threshold": None, "residual_threshold": 1e-8},
        "output": {"directory": "out"},
    }
    cfg = json.loads(json.dumps(cfg))  # a deep copy
    *parents, last = draw(st.sampled_from(list(field_paths(cfg))))
    node = cfg
    for key in parents:
        node = node[key]
    value = draw(st.sampled_from([MISSING] + WRONG))
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    return cfg


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cfg=broken_configs(),
    command=st.sampled_from([["solve"], ["expand"], ["green", "--index", "0"]]),
)
def test_generated_configs_keep_the_cli_contract(tmp_path, monkeypatch, cfg, command):
    monkeypatch.chdir(tmp_path)  # relative output directories land here
    rows = [f"{-2.0 + 0.5 * k!r},{math.sin(k)!r},0.0\n" for k in range(8)]
    (tmp_path / "datum.csv").write_text("x0,re,im\n" + "".join(rows))
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    output = cfg.get("output", {})
    directory = output.get("directory", ".") if isinstance(output, dict) else None
    if isinstance(directory, str):
        (tmp_path / directory / "report.json").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command[0], "--config", "run.json"] + command[1:])
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if code == 2:
        assert (tmp_path / directory / "report.json").exists()
