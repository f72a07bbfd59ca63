"""Processes the benchmark starts; run by ``run.py``, not by hand.

``child.py cli SPANS_JSON ARG...``
    One traced CLI op: wrap the module boundaries, run
    ``schwartzcalc.cli.main(ARG...)``, write the spans, exit with its code.
``child.py lib PARAMS_JSON``
    The library workload: import schwartzcalc, run one untimed warm-up
    ``solve_pde`` and report ready on stdout; unless ``setup_only``, run the
    timed loop and print the per-op results as one JSON line.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy as np

import probe
import reference
import spans


def run_cli(spans_path, argv):
    import schwartzcalc.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        code = schwartzcalc.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


def _lib_op(sc, grid, spec, params, op_id, tracer):
    """One library op on a fresh datum; returns its result record."""
    rng = np.random.default_rng([params["seed"], op_id])
    datum = reference.band_limited(rng, (params["n"],), params["band"])
    record = {"op": op_id, "traced": tracer is not None}
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
    try:
        t0 = time.perf_counter()
        with tracer.span("op") if tracer is not None else contextlib.nullcontext():
            result = sc.solve_pde(spec, sc.GridDistribution(grid, datum))
        record["seconds"] = time.perf_counter() - t0
    except Exception as exc:  # a failed op is counted, the loop goes on
        record.update(seconds=None, ok=False, error=f"{type(exc).__name__}: {exc}")
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
    solution = np.asarray(result.solution.samples)
    err = reference.relative_error(solution, reference.solve_reference(datum, params["half_extent"]))
    record["ok"] = bool(err <= reference.REL_TOL)
    record["rel_error"] = err
    if not record["ok"]:
        record["error"] = f"solution differs from the reference by {err:.3e}"
    return record


def run_lib(params):
    import schwartzcalc as sc

    grid = sc.make_grid(1, [params["n"]], [params["half_extent"]])
    spec = sc.DifferentialOperatorSpec({(0,): 1.0, (2,): -1.0})
    t0 = time.perf_counter()
    warm = _lib_op(sc, grid, spec, params, 0, None)
    # only the solve itself counts towards set-up, not making or checking data
    excluded = time.perf_counter() - t0 - (warm["seconds"] or 0.0)
    print(json.dumps({"ready": True, "excluded_s": excluded, "warmup": warm}), flush=True)
    if params["setup_only"]:
        return 0

    tracer = spans.Tracer() if params["trace"] else None
    speed = probe.Probe(**params["probe"])
    ops, probes = [], [speed()]
    start = time.perf_counter()
    while time.perf_counter() - start < params["seconds"] or len(ops) < params["min_ops"]:
        op_id = len(ops) + 1
        traced = tracer is not None and op_id % 2 == 0
        ops.append(_lib_op(sc, grid, spec, params, op_id, tracer if traced else None))
        probes.append(speed())
    probe.normalize(ops, probes)
    if tracer is not None:
        tracer.dump(params["spans_path"])
    print(json.dumps({"ops": ops}), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    sys.exit(run_lib(json.loads(sys.argv[2])))
