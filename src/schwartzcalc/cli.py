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
import contextlib
import gc
import json
import os
import re
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
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
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


def _load_samples(lines, skip: int) -> np.ndarray:
    """The ``re, im`` pairs that end the rows of ``lines`` (an opened file or
    a list of its lines) after the first ``skip``, in one ``np.loadtxt`` pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "input contained no data": 0 rows, refused by the caller
        return np.loadtxt(
            lines, delimiter=",", comments="#", usecols=(-2, -1), ndmin=2, skiprows=skip
        )


def _refused_line(lines: list[str], skip: int) -> int | None:
    """The 1-based number of the first line after ``skip`` that
    ``_load_samples`` refuses on its own, None if every line loads alone (no
    such file is known: numpy refuses a file one row at a time), and the
    caller then names no line.  numpy's own row numbers count data rows
    only, from 0 in a conversion error and from 1 in a column-count error."""
    for number, text in enumerate(lines[skip:], skip + 1):
        try:
            _load_samples([text], 0)
        except ValueError:
            return number
    return None


def _read_samples_csv(path: str, grid: Grid) -> GridDistribution:
    """The samples of ``path``, a file in the format ``write_distribution_csv``
    writes: an optional header, then one row per node whose last two fields
    are ``re, im``.

    Leading ``#`` comment lines and blank lines are skipped, and the first
    other line is the header unless ``float()`` reads its last two fields.
    One ``np.loadtxt`` pass reads the rest from the opened file (given a
    path, numpy's ``DataSource`` would fetch URLs and decompress by suffix).
    Comments and blank lines may stand anywhere; any other line whose last
    two fields are not numbers is a ``ConfigError`` naming that line of the
    file, with numpy's message less its row number.
    """
    refused = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            skip = 0
            for skip, line in enumerate(fh, 1):
                fields = line.partition("#")[0].rstrip("\r\n").split(",")
                if fields != [""]:  # the first line neither a comment nor blank
                    with contextlib.suppress(IndexError, ValueError):
                        float(fields[-2]), float(fields[-1])
                        skip -= 1  # it is data: no header to skip
                    break
            fh.seek(0)
            try:
                table = _load_samples(fh, skip)
            except ValueError:
                fh.seek(0)
                refused = _refused_line(fh.readlines(), skip)
                raise
    except OSError as exc:
        raise ConfigError(f"cannot read samples file {str(path)!r}: {exc}") from exc
    except ValueError as exc:  # undecodable bytes included
        where = "" if refused is None else f"line {refused}: "
        reason = re.sub(r" at row \d+", "", str(exc))
        raise ConfigError(f"samples file {str(path)!r} is not a readable CSV: {where}{reason}") from exc
    samples = table.view(np.complex128).reshape(-1)
    if samples.size != grid.size:
        raise ConfigError(
            f"samples file {str(path)!r} has {samples.size} data rows, grid has {grid.size} nodes"
        )
    finite = np.isfinite(samples)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ConfigError(
            f"samples file {str(path)!r}: data row {row + 1} holds a non-finite value {samples[row]}"
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
        return DiracFamily(grid).member(p), f"delta(p={list(p)})"
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or a lone surrogate
        raise ConfigError(f"cannot create output directory {str(directory)!r}: {exc}") from exc
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
def _cannot_write(path, errors=OSError):
    """An ``errors`` exception inside is the ``ConfigError`` "cannot write ``path``"."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc


@contextlib.contextmanager
def _open_output(path):
    """Open ``path`` for writing; a failure to create or write it, a NUL byte
    in it included, is a ``ConfigError``."""
    with _cannot_write(path, (OSError, ValueError)):  # open's only: a caller's NonFiniteSamples passes
        fh = open(path, "w", encoding="utf-8", newline="")
    with _cannot_write(path), fh:  # a write or the flush at close failed
        yield fh


def write_distribution_csv(path: Path, dist: GridDistribution) -> None:
    """One row ``x0[,x1...],re,im`` per node, row-major, every value ``repr``
    of a Python float.

    The rows are written one slab along the last axis at a time, in blocks
    of at most ``_CSV_BLOCK_ROWS``.  An axis's coordinate strings are held
    while the axis fits in a block and made a block at a time otherwise, so
    on any grid shape a write holds at most a block of strings per axis.
    """
    grid, last = dist.grid, dist.grid.dim - 1
    def strings(axis):  # ``repr`` of ``grid.axis_points(axis)``, bit for bit, a block at a time
        count = grid.counts[axis]
        for start in range(0, count, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, count)
            yield from map(repr, grid._axis_nodes(axis, np.arange(start, stop, dtype=np.float64)).tolist())

    def prefixes(axis):  # ``"x0,...,"`` of each slab along the last axis, row-major
        if axis == last:
            return [""]
        return (f"{x},{rest}" for x in held[axis] or strings(axis) for rest in prefixes(axis + 1))

    held = [list(strings(i)) if c <= _CSV_BLOCK_ROWS else None for i, c in enumerate(grid.counts)]
    with _open_output(path) as fh:
        fh.write(",".join(f"x{i}" for i in range(grid.dim)) + ",re,im\n")
        for prefix, slab in zip(prefixes(0), dist.samples.reshape(-1, grid.counts[last])):
            xs = iter(held[last] or strings(last))
            for start in range(0, slab.size, _CSV_BLOCK_ROWS):
                block = slice(start, start + _CSV_BLOCK_ROWS)
                # xs last: zip stops at the block's end before taking another string
                rows = zip(slab.real[block].tolist(), slab.imag[block].tolist(), xs)
                fh.write("".join([f"{prefix}{x},{re!r},{im!r}\n" for re, im, x in rows]))


def _report_text(report: dict) -> str:
    """``report`` as strict JSON (RFC 8259 has no NaN or Infinity), one
    line end included.  A value that is not finite is a ``NonFiniteSamples``
    naming its top-level key."""
    for key in sorted(report):
        try:
            json.dumps(report[key], allow_nan=False)
        except ValueError:
            raise NonFiniteSamples(f"the report's {key!r} is not finite; a report holds finite numbers only") from None
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finish(out_dir: Path, report: dict, csvs: dict, code: int, message: str) -> int:
    """The one way out of ``solve``, ``green`` and ``expand``: check the
    report and every output name, write each CSV (``csvs`` maps its file name
    to a callable that builds the distribution), write ``report.json``, then
    print ``message``, to stderr when ``code`` is not 0.  A refused report or
    output name writes no file."""
    text = _report_text(report)
    for path in [out_dir / name for name in (*csvs, "report.json")]:
        with _cannot_write(path), contextlib.suppress(FileNotFoundError):  # creates and truncates nothing
            os.close(os.open(path, os.O_WRONLY))
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
        flats.append(grid.index_of(pt))
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
    """Parser whose usage errors are one-line ``ConfigError``s, exit 1
    (argparse's own 2 is the CLI's "not divisible/invertible"), that show
    each argument they name as a Python string literal."""

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
        return args

    def error(self, message):
        # argparse names some arguments raw, as in "ambiguous option: --=a"
        raise ConfigError(f"{self.prog}: {message if message.isprintable() else repr(message)}")


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
    try:
        args = build_parser().parse_args(_join_index_values(argv))
        return args.func(args)
    except (ConfigError, IndexOffGrid) as exc:  # an off-grid point comes from the config or an --index
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
