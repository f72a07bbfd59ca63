"""Batch command-line front end.

Subcommands
-----------
``solve --config FILE``
    Solve ``A(u) = d`` by symbol division; writes ``solution.csv`` and
    ``report.json``.
``green --config FILE --index P [--index P ...]``
    Build Green members for the configured operator at the given index
    points (grid nodes, checked before anything is built; negative
    coordinates such as ``--index -3.75,0.5`` are accepted); writes
    ``green_XXX.csv`` per index and ``report.json``.
``expand --config FILE``
    Apply the configured operator by spectral expansion; writes
    ``expansion.csv`` (the image) and ``integrand.csv`` (the symbol-scaled
    coordinate distribution).
``verify SUITE``
    Run a self-check suite (``identity``, ``homomorphism``, ``eigen``,
    ``solver``, ``green`` or ``all``) and print a deterministic pass/fail
    table.

Exit codes: 0 success; 1 configuration problem, including a command-line
usage error; 2 the datum or a left-inverse member is not divisible by the
symbol under the policy; 3 a verification check failed.

The probe generator seed is taken from the ``SCHWARTZ_SEED`` environment
variable (default 42).  The JSON config schema is documented in the README.
CSV outputs carry the header ``x0[,x1...],re,im`` with one row per grid node
in row-major order; identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import gc
import itertools
import json
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    IndexOffGrid,
    NonFiniteSamples,
    NotDivisible,
    SchwartzCalcError,
)
from .grid import (
    Grid,
    GridDistribution,
    SymbolFunction,
    _polynomial_symbol,
    delta_distribution,
    make_grid,
    sample_function,
    unit_symbol,
)
from .families import MAX_DENSE_POINTS, DiracFamily, FourierFamily, SchwartzFamily, _transform_pair
from .solver import (
    DifferentialOperatorSpec,
    DivisionPolicy,
    _fourier_pair,
    _solve,
)
from .green import green_family_divided, left_inverse_family

DEFAULT_SEED = 42
#: rows of a distribution CSV formatted and written per write call
_CSV_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# config parsing


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # missing, a directory, unreadable, not UTF-8, not JSON or nested too deep
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, optional: bool = False) -> dict:
    """The section ``cfg[key]``, a JSON object; an absent optional section is ``{}``."""
    if key not in cfg and not optional:
        raise ConfigError(f"config is missing the {key!r} section")
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {key!r} must be a dict")
    return value


def _real(value, what: str) -> float:
    """The one ``float()`` of config input; JSON ``true``/``false`` are not numbers."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _integral(value, what: str) -> int:
    """A config whole number: an ``int`` unchanged, any other number only without a fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    x = _real(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return int(x)


def _reals(values, what: str, number=_real) -> list:
    """A config list of numbers, each read by ``number`` (``_real`` or ``_integral``)."""
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list of numbers, got {values!r}")
    return [number(v, what) for v in values]


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _parse_grid(section: dict) -> Grid:
    grid = make_grid(
        _integral(section.get("dim"), "grid dim"),
        _reals(section.get("counts"), "grid counts", _integral),
        _reals(section.get("half_extents"), "grid half_extents"),
    )
    if grid.size > MAX_DENSE_POINTS**2:
        raise ConfigError(f"a grid of {grid.size} nodes exceeds the cap of {MAX_DENSE_POINTS**2}")
    return grid


def _parse_complex(value, what: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], what), _real(value[1], what))
    return complex(_real(value, what))


def _parse_multi_index(key: str, dim: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in str(key).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad derivative multi-index {key!r}") from exc
    if len(parts) != dim:
        raise ConfigError(
            f"multi-index {key!r} has {len(parts)} entries for a {dim}-dimensional grid"
        )
    if any(p < 0 for p in parts):
        raise ConfigError(f"multi-index {key!r} has negative entries")
    return parts


def _parse_terms(section: dict, key: str, dim: int, what: str) -> list:
    """The ``{multi-index: coefficient}`` object ``section[key]`` as pairs in config order."""
    terms = section.get(key)
    if not isinstance(terms, dict) or not terms:
        raise ConfigError(f"{what} needs a non-empty {key!r} object")
    return [
        (_parse_multi_index(k, dim), _parse_complex(v, f"{what} term {k!r}"))
        for k, v in terms.items()
    ]


def _parse_symbol(section: dict, dim: int) -> SymbolFunction:
    name = section.get("name")
    if name == "one":
        return unit_symbol(dim)
    if name == "polynomial":
        terms = _parse_terms(section, "terms", dim, "polynomial symbol")
        label = "+".join(f"{c}*x^{idx}" for idx, c in terms)
        return _polynomial_symbol(dim, terms, f"poly[{label}]")
    raise ConfigError(f"unknown symbol name {name!r} (use 'one' or 'polynomial')")


def _parse_point(value, dim: int, what: str) -> tuple[float, ...]:
    pt = tuple(_reals([value] if isinstance(value, (int, float)) else value, what))
    if len(pt) != dim:
        raise ConfigError(f"{what} needs {dim} coordinates, got {len(pt)}")
    return pt


def _samples_by_csv_module(path: str) -> np.ndarray:
    """The literal reader, which defines the samples format: the last two
    fields of each ``csv.reader`` row as ``re, im``.

    Rows whose last two fields do not parse as floats (headers, comments,
    blank or one-field lines) are skipped.  Only the two parsed columns are
    kept while reading.
    """
    re_col, im_col = array.array("d"), array.array("d")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                try:
                    re_part, im_part = float(row[-2]), float(row[-1])
                except (IndexError, ValueError):
                    continue  # header, comment, blank or short line
                re_col.append(re_part)
                im_col.append(im_part)
    except OSError as exc:
        raise ConfigError(f"cannot read samples file {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"samples file {path} is not a readable CSV: {exc}") from exc
    samples = np.empty(len(re_col), dtype=np.complex128)
    samples.real = np.frombuffer(re_col, dtype=np.float64)
    samples.imag = np.frombuffer(im_col, dtype=np.float64)
    return samples


#: NUL, which ``csv.reader`` refuses before Python 3.11, and the separators
#: 0x1c-0x1f, which numpy's float parser strips as whitespace and ``float()`` refuses
_UNVOUCHED_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _vouched(path: str) -> bool:
    """Whether the C pass may read ``path``.

    ``np.loadtxt`` opens a path through numpy's ``DataSource``, which picks
    a decompressor by suffix and fetches URLs, so ``path``, absolute, must
    end in ``.csv``.  The file is read three times, so it must be a regular
    file, not a pipe.  It must hold none of ``_UNVOUCHED_BYTES`` and
    no field longer than ``csv.field_size_limit()``, which ``csv.reader``
    refuses.  Such a field lies in a run without a line end that covers a
    whole block of half the limit, unless a quoted field spans lines; a file
    with a quote character is vouched for only when it is no longer than the
    limit.
    """
    if not (path.endswith(".csv") and stat.S_ISREG(os.stat(path).st_mode)):
        return False
    limit = csv.field_size_limit()
    step = max(limit // 2, 1)
    size, quoted, unbroken = 0, False, False
    with open(path, "rb") as raw:
        while block := raw.read(step):
            if any(b in block for b in _UNVOUCHED_BYTES):
                return False
            size += len(block)
            quoted = quoted or b'"' in block
            if len(block) == step and b"\n" not in block and b"\r" not in block:
                unbroken = True
    return size <= limit or not (quoted or unbroken)


def _samples_by_loadtxt(path: str) -> np.ndarray:
    """The samples of ``path`` in one C pass of ``np.loadtxt``; raises when
    ``_vouched`` refuses the file or the file may read differently by
    ``_samples_by_csv_module``.

    The first line is skipped when it is not data by the literal rule, and
    every later row must then be data: any other row, a value ``float()``
    takes but the C parser refuses (``1_0``) or a file with no data raises.
    """
    path = os.path.abspath(path)
    if not _vouched(path):
        raise ValueError(f"samples file {path} is left to the csv module")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        first = next(rows, [])
        if rows.line_num > 1:
            raise ValueError("the first row spans lines")
        try:
            float(first[-2]), float(first[-1])
            header = 0
        except (IndexError, ValueError):
            header = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data"
        table = np.loadtxt(
            path, delimiter=",", comments=None, usecols=(-2, -1), quotechar='"',
            ndmin=2, skiprows=header, encoding="utf-8",
        )
    return table.view(np.complex128).reshape(-1)


def _read_samples_csv(path: str, grid: Grid) -> GridDistribution:
    """Read the last two fields of each row as ``re, im``.

    One C pass (``_samples_by_loadtxt``) reads the file when it can vouch
    for it; otherwise the literal reader ``_samples_by_csv_module`` does.
    Both give the same values bit for bit.
    """
    try:
        samples = _samples_by_loadtxt(path)
    except (OSError, ValueError, csv.Error, Warning):
        # the literal reader decides every file the C pass cannot vouch for
        samples = _samples_by_csv_module(path)
    if samples.size != grid.size:
        raise ConfigError(
            f"samples file {path} has {samples.size} data rows, grid has {grid.size} nodes"
        )
    finite = np.isfinite(samples)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ConfigError(
            f"samples file {path}: data row {row + 1} holds a non-finite value {samples[row]}"
        )
    return GridDistribution._trusted(grid, samples, finite=True)


def _parse_datum(section: dict, grid: Grid) -> tuple[GridDistribution, str]:
    kind = section.get("kind")
    if kind == "gaussian":
        sigma = _real(section.get("sigma", 1.0), "gaussian sigma")
        if not (sigma > 0.0 and 0.0 < sigma * sigma < np.inf):
            raise ConfigError(
                f"gaussian sigma must be positive with a finite, non-zero square, got {sigma}"
            )
        center = _parse_point(section.get("center", [0.0] * grid.dim), grid.dim, "center")
        datum = sample_function(
            grid,
            lambda *xs: np.exp(
                -sum((x - c) ** 2 for x, c in zip(xs, center)) / (2.0 * sigma**2)
            ),
        )
        return datum, f"gaussian(sigma={sigma}, center={list(center)})"
    if kind in ("sin", "cos"):
        k = _parse_point(section.get("k", 1.0), grid.dim, "wave vector k")
        fn = np.sin if kind == "sin" else np.cos
        datum = sample_function(
            grid, lambda *xs: fn(sum(ki * x for ki, x in zip(k, xs)))
        )
        return datum, f"{kind}(k={list(k)})"
    if kind == "constant":
        c = _parse_complex(section.get("c", 1.0), "constant datum c")
        datum = sample_function(grid, lambda *xs: np.full(np.broadcast(*xs).shape, c))
        return datum, f"constant({c})"
    if kind == "delta":
        p = _parse_point(section.get("p", [0.0] * grid.dim), grid.dim, "delta location p")
        try:
            datum = delta_distribution(grid, p)
        except IndexOffGrid as exc:
            raise ConfigError(str(exc)) from exc
        return datum, f"delta(p={list(p)})"
    if kind == "samples":
        path = _string(section.get("path"), "samples datum path")
        return _read_samples_csv(path, grid), f"samples({path})"
    raise ConfigError(
        f"unknown datum kind {kind!r} "
        "(use gaussian, sin, cos, constant, delta or samples)"
    )


def _parse_policy(section: dict) -> DivisionPolicy:
    zt = section.get("zero_threshold")
    zero_threshold = None if zt is None else _real(zt, "policy zero_threshold")
    rt = _real(section.get("residual_threshold", 1e-10), "policy residual_threshold")
    try:
        return DivisionPolicy(zero_threshold=zero_threshold, residual_threshold=rt)
    except ValueError as exc:
        raise ConfigError(f"bad division policy: {exc}") from exc


def _parse_operator(section: dict, grid: Grid) -> tuple[SchwartzFamily, SymbolFunction, str]:
    """Resolve the operator config to its eigen-pair (family, symbol)."""
    kind = section.get("type")
    if kind == "differential":
        coeffs = dict(_parse_terms(section, "coefficients", grid.dim, "differential operator"))
        family, symbol = _fourier_pair(DifferentialOperatorSpec(coeffs), grid)
        label = ", ".join(
            f"d^{','.join(map(str, idx))}: {coeffs[idx]}" for idx in sorted(coeffs)
        )
        return family, symbol, f"differential({label})"
    if kind == "diagonal":
        family_name = section.get("family")
        if family_name == "fourier":
            family: SchwartzFamily = FourierFamily(grid)
        elif family_name == "dirac":
            family = DiracFamily(grid)
        else:
            raise ConfigError(f"unknown family {family_name!r} (use 'fourier' or 'dirac')")
        symbol = _parse_symbol(_require(section, "symbol"), family.index_dim)
        return family, symbol, f"diagonal(family={family_name}, symbol={symbol.descriptor})"
    if kind == "multiplication":
        symbol = _parse_symbol(_require(section, "symbol"), grid.dim)
        return DiracFamily(grid), symbol, f"multiplication({symbol.descriptor})"
    raise ConfigError(
        f"unknown operator type {kind!r} "
        "(use differential, diagonal or multiplication)"
    )


def _output_dir(cfg: dict) -> Path:
    section = _require(cfg, "output", optional=True)
    directory = Path(_string(section.get("directory", "."), "output directory"))
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc}") from exc
    return directory


# ---------------------------------------------------------------------------
# deterministic writers


def _policy_json(policy: DivisionPolicy, applied: float | None = None) -> dict:
    out = {
        "zero_threshold": policy.zero_threshold,
        "residual_threshold": policy.residual_threshold,
    }
    if applied is not None:
        out["zero_threshold_applied"] = applied
    return out


@contextlib.contextmanager
def _open_output(path):
    """Open ``path`` for writing; a failure to create or write it is a
    ``ConfigError``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_distribution_csv(path: Path, dist: GridDistribution) -> None:
    """One row ``x0[,x1...],re,im`` per node, row-major, every value ``repr``
    of a Python float.

    The rows are written one slab along the last axis at a time, in blocks
    of at most ``_CSV_BLOCK_ROWS``, with the slab's leading coordinates
    formatted once.  On a grid of several slabs each axis is formatted once;
    on a 1-d grid, one slab, each block formats its own coordinates, so the
    memory of a write stays within a block.
    """
    grid = dist.grid
    n, L, dx = grid.counts[-1], grid.half_extents[-1], grid.spacings[-1]
    axes = [list(map(repr, grid.axis_points(i).tolist())) for i in range(grid.dim - 1)]
    # several slabs share the strings of the last axis; the one slab of a
    # 1-d grid uses each string once, so there each block formats its own
    last = list(map(repr, grid.axis_points(grid.dim - 1).tolist())) if axes else None
    slabs = dist.samples.reshape(-1, n)
    with _open_output(path) as fh:
        fh.write(",".join(f"x{i}" for i in range(grid.dim)) + ",re,im\n")
        for lead, slab in zip(itertools.product(*axes), slabs):
            prefix = "".join(c + "," for c in lead)
            for start in range(0, n, _CSV_BLOCK_ROWS):
                stop = min(start + _CSV_BLOCK_ROWS, n)
                if last is None:  # the values of ``grid.axis_points``, bit for bit
                    xs = map(repr, (-L + dx * np.arange(start, stop)).tolist())
                else:
                    xs = last[start:stop]
                re_part, im_part = slab.real[start:stop].tolist(), slab.imag[start:stop].tolist()
                rows = zip(xs, re_part, im_part)
                fh.write("".join([f"{prefix}{x},{re!r},{im!r}\n" for x, re, im in rows]))


def _report_text(report: dict) -> str:
    """``report`` as strict JSON (RFC 8259 has no NaN or Infinity), one
    line end included.  A value that is not finite is a ``NonFiniteSamples``
    naming its top-level key."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        for key in sorted(report):
            try:
                json.dumps(report[key], allow_nan=False)
            except ValueError:
                raise NonFiniteSamples(f"the report's {key!r} is not finite; a report holds finite numbers only") from None
        raise


def _finish(out_dir: Path, report: dict, csvs: dict, code: int, message: str) -> int:
    """The one way out of ``solve``, ``green`` and ``expand``: check the
    report, write each CSV (``csvs`` maps its file name to a callable that
    builds the distribution), write ``report.json``, then print ``message``,
    to stderr when ``code`` is not 0.  A refused report writes no file."""
    text = _report_text(report)
    for name, build in csvs.items():
        write_distribution_csv(out_dir / name, build())
    with _open_output(out_dir / "report.json") as fh:
        fh.write(text)
    print(message, file=sys.stderr if code else sys.stdout)
    return code


# ---------------------------------------------------------------------------
# subcommands


def _front(args, command: str) -> tuple:
    """The config, grid and operator of ``args.config``, and the report head
    ``{command, grid, operator}`` every command but ``verify`` starts from."""
    cfg = _load_config(args.config)
    grid = _parse_grid(_require(cfg, "grid"))
    family, symbol, op_label = _parse_operator(_require(cfg, "operator"), grid)
    grid_json = {"dim": grid.dim, "counts": list(grid.counts), "half_extents": [float(L) for L in grid.half_extents]}
    return cfg, grid, family, symbol, {"command": command, "grid": grid_json, "operator": op_label}


def _worst(exc: NotDivisible) -> dict:
    """The offending node of a ``NotDivisible``, as both its reports give it."""
    return {"worst_index": [float(c) for c in exc.worst_point], "worst_flat_index": exc.worst_index}


def _cmd_solve(args) -> int:
    cfg, grid, family, symbol, report = _front(args, "solve")
    datum, report["datum"] = _parse_datum(_require(cfg, "datum"), grid)
    policy = _parse_policy(_require(cfg, "policy", optional=True))
    out_dir = _output_dir(cfg)
    try:
        result, applied = _solve(family, symbol, datum, policy)
    except NotDivisible as exc:
        report.update(
            policy=_policy_json(policy, exc.zero_threshold), status="not_divisible", divisible=False,
            residual=None, **_worst(exc), offending_mass=exc.magnitude,
        )
        return _finish(out_dir, report, {}, 2, f"not divisible: {exc}")
    del datum  # freed first, the residual read below stays under the solve's peak
    report.update(
        policy=_policy_json(policy, applied), status="ok", divisible=True,
        residual=result.residual, outputs={"solution_csv": "solution.csv"},
    )
    message = f"solved: residual {result.residual:.4e}; outputs in {out_dir}"
    return _finish(out_dir, report, {"solution.csv": lambda: result.solution}, 0, message)


def _cmd_green(args) -> int:
    cfg, grid, family, symbol, report = _front(args, "green")
    policy = _parse_policy(_require(cfg, "policy", optional=True))
    out_dir = _output_dir(cfg)
    # every index is resolved on the Green index grid (the space grid)
    # before anything is built
    points, flats = [], []
    for raw in args.index:
        pt = _parse_point(raw.split(","), grid.dim, f"index {raw!r}")
        try:
            flats.append(grid.index_of(pt))
        except IndexOffGrid as exc:
            raise ConfigError(str(exc)) from exc
        points.append(pt)
    report.update(policy=_policy_json(policy), indices=[list(p) for p in points])
    try:
        result = green_family_divided(family, symbol, left_inverse_family(family), policy)
    except NotDivisible as exc:
        report.update(status="not_divisible", **_worst(exc), magnitude=exc.magnitude)
        return _finish(out_dir, report, {}, 2, f"green construction failed: {exc}")
    names = [f"green_{k:03d}.csv" for k in range(len(points))]
    report.update(
        status="ok",
        route=result.route,
        outputs={name: list(pt) for name, pt in zip(names, points)},
        weak_residuals={name: float(result.weak_residuals[f]) for name, f in zip(names, flats)},
        max_weak_residual_all_indices=result.max_weak_residual(),
        probe={"centers": [list(c) for c in result.probe_centers], "width_cells": result.probe_width_cells},
    )
    # each member is built when its file is written, one at a time
    members = {name: (lambda pt=pt: result.family.member(pt)) for name, pt in zip(names, points)}
    message = (
        f"green family built ({result.route}); max weak residual "
        f"{result.max_weak_residual():.4e}; outputs in {out_dir}"
    )
    return _finish(out_dir, report, members, 0, message)


def _cmd_expand(args) -> int:
    cfg, grid, family, symbol, report = _front(args, "expand")
    datum, report["datum"] = _parse_datum(_require(cfg, "datum"), grid)
    out_dir = _output_dir(cfg)
    # the integrand a * c on the whole index grid, spread before the half synthesis overwrites it
    rows = datum.samples[np.newaxis]
    pair = _transform_pair(family, symbol, datum._real or not rows.imag.any())
    integrands = pair.scaled(rows)
    integrand = GridDistribution._trusted(family.index_grid, pair.to_full(integrands[0]))
    image = GridDistribution._trusted(grid, pair.synthesise(integrands)[0])
    report.update(status="ok", outputs={"expansion_csv": "expansion.csv", "integrand_csv": "integrand.csv"})
    csvs = {"expansion.csv": lambda: image, "integrand.csv": lambda: integrand}
    return _finish(out_dir, report, csvs, 0, f"expansion written to {out_dir}")


def _cmd_verify(args) -> int:
    # imported here: no other command needs the suites
    from .verify import SUITE_NAMES, format_report, run_suites

    suite = args.suite
    if suite != "all" and suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    names = SUITE_NAMES if suite == "all" else (suite,)
    raw = os.environ.get("SCHWARTZ_SEED", str(DEFAULT_SEED))
    seed = -1
    with contextlib.suppress(ValueError):
        seed = int(raw)
    if seed < 0:
        raise ConfigError(f"SCHWARTZ_SEED must be a non-negative integer, got {raw!r}")
    checks = run_suites(names, seed)
    report = format_report(checks, seed)
    sys.stdout.write(report)
    if args.report:
        with _open_output(args.report) as fh:
            fh.write(report)
    return 0 if all(c.passed for c in checks) else 3


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1, the code of configuration problems
    (argparse's own 2 is the CLI's "not divisible/invertible")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _join_index_values(argv: list[str]) -> list[str]:
    """Rewrite ``--index VALUE`` as ``--index=VALUE``, so that argparse takes
    a value such as ``-3.75,0.5`` as the option's argument, not as an option."""
    out = []
    pending = False
    for arg in argv:
        if pending:
            out[-1] = f"--index={arg}"
            pending = False
            continue
        out.append(arg)
        pending = arg == "--index"
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="schwartzcalc",
        description="Spectral calculus on periodic grids: solve, expand, Green families, self checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve A(u) = d by symbol division")
    p_solve.add_argument("--config", required=True, help="JSON run configuration")
    p_solve.set_defaults(func=_cmd_solve)

    p_green = sub.add_parser("green", help="build Green members at index points")
    p_green.add_argument("--config", required=True, help="JSON run configuration")
    p_green.add_argument(
        "--index",
        action="append",
        required=True,
        help="index point, comma-separated coordinates; repeatable",
    )
    p_green.set_defaults(func=_cmd_green)

    p_expand = sub.add_parser("expand", help="apply the operator by spectral expansion")
    p_expand.add_argument("--config", required=True, help="JSON run configuration")
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("suite", help="identity|homomorphism|eigen|solver|green|all")
    p_verify.add_argument("--report", help="also write the table to this file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_index_values(argv))
    try:
        # an overflow or invalid value ends as a typed error, not as warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SchwartzCalcError as exc:
        # remaining library errors (bad grids, arity clashes, ...) are config-level
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry point (``python -m schwartzcalc`` and the installed
    ``schwartzcalc`` command): ``sys.exit(main())``.

    What is tracked once the modules are imported (numpy, this package)
    lives until the process exits.  ``gc.freeze()`` moves it to the
    permanent generation, which no collection traverses, the full ones at
    interpreter exit included.  In-process callers use ``main``.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
