"""The CLI's CSV writer and samples reader against their first, literal forms.

``naive.write_distribution_csv`` formats one row at a time from
``grid.points()`` and ``naive.read_samples_csv`` holds every row of the file;
the CLI's versions must write the same bytes and read the same values.  The
CLI reads a samples file in one C pass (``np.loadtxt``), in the format the
writer writes; other files are refused with one error line.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings

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
        ([BLOCK + 6, 4], [3.3, 1e-3]),  # a leading axis longer than a block
        ([4, 6, 10], [1.0, 2.0 / 3.0, 1e5]),  # many slabs per block, unequal counts
        ([4, BLOCK + 6, 4], [1.0, 3.3, 1e-3]),  # an inner leading axis longer than a block
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


def test_writer_memory_stays_within_a_block(tmp_path):
    # whole-column lists of the 65,536 values would peak near 4 MiB; an axis
    # formatted whole peaks near 6.5 MiB on a 1-d grid, and near 2 MiB when
    # it is the long axis of a thin grid, first or last
    for counts in ([256, 256], [1 << 16], [4, 4 * BLOCK], [4 * BLOCK, 4]):
        grid = make_grid(len(counts), counts, [20.0] * len(counts))
        dist = special_distribution(grid, seed=256)
        tracemalloc.start()
        try:
            cli.write_distribution_csv(tmp_path / "solution.csv", dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, counts


def read_both(tmp_path, text, counts=(4,)):
    path = tmp_path / "datum.csv"
    path.write_bytes(text.encode("utf-8"))
    grid = make_grid(len(counts), counts, [1.0] * len(counts))
    return cli._read_samples_csv(str(path), grid).samples, naive.read_samples_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        # a quoted header and quoted leading fields, one holding a comma
        '"x0","re","im"\n"-1.0",0.5,-0.25\n"a, b",1.5,2\n-0.5,-0.0,0.0\n0,3,4\n',
        # CRLF line ends
        "x0,re,im\r\n-1.0,0.5,-0.25\r\n-0.5,1.5,2.0\r\n0.0,-0.0,0.0\r\n0.5,3.0,4.0\r\n",
        # CR line ends, no line end after the last row
        "x0,re,im\r-1.0,0.5,-0.25\r-0.5,1.5,2.0\r0.0,-0.0,0.0\r0.5,3.0,4.0",
        # blank lines and comments anywhere, and rows of just re, im
        "\n# first line\nx0,re,im\n\n-1.0,0.5,-0.25\n#\n1.5,2.0\n\r\n0.0,-0.0,0.0\n0.5,3,4\n\n",
        # extra leading columns
        "id,x0,x1,re,im\n1,-1.0,0.0,0.5,-0.25\n2,-0.5,0.0,1.5,2.0\n3,0.0,0.0,-0.0,0.0\n4,0.5,0.0,3,4\n",
    ],
    ids=["quoted", "crlf", "cr", "blank-and-short", "leading-columns"],
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


def expand_samples(tmp_path, path):
    """``cli.main(["expand", ...])`` on the samples file ``path`` for a 4-node
    grid, with warnings as errors: the exit code and the lines of stderr."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "grid": {"dim": 1, "counts": [4], "half_extents": [1.0]},
        "operator": {"type": "multiplication", "symbol": {"name": "one"}},
        "datum": {"kind": "samples", "path": str(path)},
        "output": {"directory": str(tmp_path / "out")},
    }))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["expand", "--config", str(config)])
    return code, err.getvalue().splitlines()


ROWS = "-1.0,1,2\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('x0,re,im\n-1.0,"1",2\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n', "not a readable CSV: line 2: "),
        ("x0,re,im\n-1.0,1,2\n-0.5,3,4\n \n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 4: "),
        ("x0,re,im\n-1.0,1,2\n7\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 3: "),
        ("x0,re,im\n-1.0,1,2\n-0.5,3,4\nx0,re,im\n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 4: "),
        ("x0,re,im\n-1.0,1,2\n-0.5,3,abc\n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 3: "),
        ("x0,re,im\n-1.0,1,2\n# note\n-0.5,3,4\n\nabc\n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 6: "),
        ("x0,re,im\n-1.0,1_0,0.5\n-0.5,1,2\n0.0,3,4\n0.5,5,6\n", "not a readable CSV: line 2: "),
        ("x0,re,im\n-1.0,1,\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 2: "),
        ("x0,re,im\n-1.0,1,2\n-0.5,3,4\x00\n0.0,5,6\n0.5,7,8\n", "not a readable CSV: line 3: "),
        ("x0,re,im\n-1.0,1,2 # note\n-0.5,3,4\n0.0,5,6\n0.5,x,8\n", "not a readable CSV: line 5: "),
        ('"x\n0",re,im\n' + ROWS, "not a readable CSV: line 2: "),
        ("x0,re,im\n", "has 0 data rows"),
        ("", "has 0 data rows"),
        ("# only a comment\n\n", "has 0 data rows"),
        (None, "has 0 data rows"),  # a device, not a regular file
    ],
    ids=["quoted-value", "whitespace-line", "one-field-line", "second-header", "text-value",
         "text-after-comment-and-blank", "underscore", "empty-field", "nul-in-a-value",
         "late-text-value", "header-spans-lines", "header-only", "empty", "comments-only", "device"],
)
def test_refused_samples_files_exit_1_in_one_line(tmp_path, text, message):
    path = tmp_path / "datum.csv"
    if text is None:
        os.symlink(os.devnull, path)
    else:
        path.write_bytes(text.encode("utf-8"))
    code, lines = expand_samples(tmp_path, path)
    assert code == 1 and len(lines) == 1, lines
    assert lines[0].startswith(f"configuration error: samples file {path}")
    assert message in lines[0]
    # numpy's row numbers count data rows only, so the refusal names the file's line instead
    assert " at row " not in lines[0]


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize(
    "name, text",
    [
        ("datum.csv", "x0,re,im\n-1.0,1,2\n-0.5,3,4\n0.0,5,6\x1c\n0.5,7\x1f,8\n"),
        ("datum.csv", "x0,re,im\na\x00,1,2\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n"),
        ("datum.csv", "x0,re,im\n" + "7" * (LIMIT + 1) + ",1,2\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n"),
        ("datum.csv", 'x0,re,im\n"' + "7" * LIMIT + '",1,2\n-0.5,3,4\n0.0,5,6\n0.5,7,8\n'),
        ("datum.csv", '"x\n' + ROWS),
        ("datum.txt", "x0,re,im\n" + ROWS),
        ("datum.csv.gz", "x0,re,im\n" + ROWS),
    ],
    ids=["file-separator", "nul-in-a-leading-column", "field-over-the-limit",
         "quoted-field-over-the-limit", "quote-never-closes", "not-a-csv-suffix", "gz-suffix"],
)
def test_reader_reads_what_numpy_parses_under_any_name(tmp_path, name, text):
    """Fields past ``csv.field_size_limit()``, bytes 0x1c-0x1f (whitespace
    to numpy's parser), a NUL or a quote in a header or leading column: the
    csv module refused or skipped these.  A file is opened, not handed to
    numpy by name, so a ``.gz`` suffix decompresses nothing."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    samples = cli._read_samples_csv(str(path), make_grid(1, [4], [1.0])).samples
    assert same_bits(samples, np.array([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j]))
    assert expand_samples(tmp_path, path) == (0, [])


@pytest.mark.parametrize(
    "counts, half_extents",
    [
        ([2 * BLOCK + 10], [7.3]),  # longer than the csv module's field limit
        ([12, 10], [math.pi, 2.5]),
        ([4, 6, 10], [1.0, 2.0 / 3.0, 1e5]),
        ([4, BLOCK + 6], [1e-3, 3.3]),
        ([BLOCK + 6, 4], [3.3, 1e-3]),
        ([4, BLOCK + 6, 4], [1.0, 3.3, 1e-3]),
        ([4, 4 * BLOCK], [20.0, 20.0]),
        ([4 * BLOCK, 4], [20.0, 20.0]),
    ],
)
def test_c_pass_reads_the_writers_own_output(tmp_path, counts, half_extents):
    grid = make_grid(len(counts), counts, half_extents)
    dist = special_distribution(grid, seed=len(counts))
    cli.write_distribution_csv(tmp_path / "solution.csv", dist)
    assert same_bits(cli._read_samples_csv(str(tmp_path / "solution.csv"), grid).samples,
                     dist.samples)


# -- property tests: generated samples files, the reader against the literal reader

FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
VALUE = st.one_of(
    FINITE,
    FINITE.map(lambda v: f" {v} "),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "5e-324"]),
)
LEAD = st.lists(st.sampled_from(["-1.0", "7", "id", '"a, b"', '""', '"x"']), max_size=3)
DATA_ROW = st.tuples(LEAD, VALUE, VALUE).map(lambda t: ",".join(t[0] + [t[1], t[2]]))
HEADER = st.sampled_from(["x0,re,im", "x0,x1,re,im", '"x0","re","im"', "id,x0,re,im", "re"])
# lines that are no row: neither reader takes a value from them
SKIPPED = st.sampled_from(["", "#", "# comment", "# a, b, re, im", "# 1.0, 2.0 # 3.0"])


@st.composite
def accepted_files(draw):
    """A file in the format the reader takes: an optional header, then data
    rows, with comments and blank lines anywhere, under one line end."""
    lines = draw(st.lists(HEADER, max_size=1))
    lines += [draw(DATA_ROW) for _ in range(draw(st.sampled_from([0, 1, 3, 4, 4, 4, 5])))]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(SKIPPED))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(path):
    """What reading ``path`` for a 4-node grid gives: the samples' bytes, or
    the text of the ``ConfigError``."""
    try:
        return cli._read_samples_csv(str(path), make_grid(1, [4], [1.0])).samples.tobytes()
    except ConfigError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(text=accepted_files())
def test_c_pass_and_literal_reader_agree(text):
    """On the accepted format, the reader's one ``np.loadtxt`` pass gives
    the literal reader's values bit for bit, or the error its count or its
    first non-finite row calls for."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "datum.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        expected = naive.read_samples_csv(path)
        got = outcome(path)
        if expected.size != 4:
            assert got == f"samples file {path} has {expected.size} data rows, grid has 4 nodes"
        elif not np.isfinite(expected).all():
            assert f": data row {int(np.argmin(np.isfinite(expected))) + 1} holds" in got
        else:
            assert got == expected.tobytes()


OTHER_LINE = st.one_of(
    SKIPPED,
    HEADER,
    st.sampled_from([" ", "\t", "7", "0.0,1_0,0.5", '"x\n0",re,im', '0.0,"1",2', "1,2,3 # c"]),
    st.text(alphabet=',"# ab1.e-\r\x00\x1c', max_size=12),
)


@st.composite
def samples_files(draw):
    """Accepted rows mixed with any other line: files the reader may refuse."""
    lines = [draw(DATA_ROW) for _ in range(draw(st.sampled_from([0, 1, 3, 4, 4, 4, 5])))]
    for _ in range(draw(st.integers(0, 5))):
        lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_LINE))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=samples_files())
def test_samples_reader_property(tmp_path, text):
    """Any samples file keeps the CLI contract: exit 0 with the values the
    reader reads, or exit 1 with the reader's error on one line."""
    path = tmp_path / "datum.csv"
    path.write_bytes(text.encode("utf-8"))
    code, lines = expand_samples(tmp_path, path)
    got = outcome(path)
    if isinstance(got, bytes):
        assert code == 0 and lines == []
    else:
        assert code == 1 and lines == [f"configuration error: {got}"]


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
