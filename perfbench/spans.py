"""In-memory spans and counters recorded at schwartzcalc's module boundaries.

The program has no tracing of its own, so the benchmark wraps the public
functions at each module boundary from outside.  Functions are patched in
every ``schwartzcalc`` module that holds them, because modules import each
other with ``from .x import y`` and callers look the name up in their own
module.  Methods are patched on their class.

A span is ``(id, name, start, end, parent id, op id)``; counters are summed
per op.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

MIB = 1024.0 * 1024.0


def _rows_counters(tracer, args, result):
    rows = args[1]
    tracer.count("families.transform_calls", 1)
    tracer.count("families.transform_rows", rows.shape[0])
    tracer.count("families.transform_bytes", rows.nbytes + result.nbytes)


def _csv_written(tracer, args, result):
    tracer.count("cli.write_csv_bytes", os.path.getsize(args[0]))


def _csv_read(tracer, args, result):
    tracer.count("cli.read_csv_bytes", os.path.getsize(args[0]))


def _distribution_init(tracer, args, result):
    tracer.count("grid.distribution_inits", 1)


def _meshes_call(tracer, args, result):
    tracer.count("grid.meshes_calls", 1)


def _kernel_init(tracer, args, result):
    tracer.count("families.kernel_bytes", args[0].kernel.nbytes)


def _green_built(tracer, args, result):
    tracer.count("green.members_built", result.family.index_grid.size)


# (module, attribute or Class.method, span name or None for counting only,
#  counter hook run after the call)
BOUNDARIES = [
    ("schwartzcalc.cli", "main", "cli.main", None),
    ("schwartzcalc.cli", "write_distribution_csv", "cli.write_csv", _csv_written),
    ("schwartzcalc.cli", "_read_samples_csv", None, _csv_read),
    ("schwartzcalc.grid", "sample_function", "grid.sample", None),
    ("schwartzcalc.grid", "SymbolFunction.sample", "grid.sample", None),
    ("schwartzcalc.grid", "Grid.meshes", None, _meshes_call),
    ("schwartzcalc.grid", "GridDistribution.__init__", "grid.distribution", _distribution_init),
    ("schwartzcalc.grid", "l2_norm", "grid.norm", None),
    ("schwartzcalc.families", "FourierFamily.coordinates_rows", "families.analysis", _rows_counters),
    ("schwartzcalc.families", "FourierFamily.superpose_rows", "families.synthesis", _rows_counters),
    ("schwartzcalc.families", "KernelFamily.coordinates_rows", "families.analysis", _rows_counters),
    ("schwartzcalc.families", "KernelFamily.superpose_rows", "families.synthesis", _rows_counters),
    ("schwartzcalc.families", "KernelFamily.__init__", "families.kernel_init", _kernel_init),
    ("schwartzcalc.solver", "solve", "solver.solve", None),
    ("schwartzcalc.solver", "divide", "solver.divide", None),
    ("schwartzcalc.spectral", "spectral_apply", "spectral.apply", None),
    ("schwartzcalc.green", "left_inverse_family", "green.left_inverse", None),
    ("schwartzcalc.green", "green_family", "green.build", _green_built),
    ("schwartzcalc.green", "green_family_divided", "green.build", _green_built),
    ("schwartzcalc.green", "_weak_residuals", "green.probes", None),
]


class Tracer:
    """Records spans and counters for the op set by :meth:`begin_op`."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []
        self._patches = []
        self.missing = []

    def begin_op(self, op_id):
        self.op = op_id
        self.counters.setdefault(op_id, {})

    def count(self, name, value):
        ops = self.counters[self.op]
        ops[name] = ops.get(name, 0) + value

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                # the Green build is the one boundary whose peak memory is kept
                peak = name == "green.build"
                if peak:
                    tracemalloc.start()
                try:
                    with tracer.span(name):
                        result = fn(*args, **kwargs)
                finally:
                    if peak:
                        tracer.count("green.peak_bytes", tracemalloc.get_traced_memory()[1])
                        tracemalloc.stop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every boundary; a name the program no longer has is skipped
        and listed in :attr:`missing`, so its metrics read 0."""
        self.missing = []
        for module_name, attr, name, hook in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "schwartzcalc" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": {str(k): v for k, v in self.counters.items()},
                    "missing": self.missing,
                },
                fh,
            )


def load(path):
    """Spans and counters written by :meth:`Tracer.dump`, by op id."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    ops = {}
    for s in data["spans"]:
        ops.setdefault(s[5], {"spans": [], "counters": {}, "missing": data["missing"]})
        ops[s[5]]["spans"].append(s)
    for op, counters in data["counters"].items():
        ops.setdefault(int(op), {"spans": [], "counters": {}, "missing": data["missing"]})
        ops[int(op)]["counters"] = counters
    return ops


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1][0] if tracer._stack else None
        self.record = [len(tracer.spans), self.name, time.perf_counter(), None, parent, tracer.op]
        tracer.spans.append(self.record)
        tracer._stack.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# per-op metrics from spans and counters


def _union(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _self_time(spans, name):
    """Duration of the ``name`` spans minus what their direct children cover."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    return sum(
        (s[3] - s[2]) - _union(children.get(s[0], ()))
        for s in spans
        if s[1] == name
    )


def op_metrics(spans, counters):
    """Per-layer metrics of one op from its spans (list of span records)
    and counters (dict)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append((s[2], s[3]))

    def busy(*names):
        return _union([iv for n in names for iv in by_name.get(n, ())])

    def count(name):
        return counters.get(name, 0)

    solve_ids = {s[0] for s in spans if s[1] == "solver.solve"}
    residual = _union(
        [(s[2], s[3]) for s in spans
         if s[4] in solve_ids and s[1] in ("spectral.apply", "grid.norm")]
    )
    built = count("green.members_built")
    written = len(by_name.get("cli.write_csv", ())) if "green.build" in by_name else 0
    return {
        "cli.main_s": busy("cli.main"),
        "cli.self_s": _self_time(spans, "cli.main"),
        "cli.write_csv_s": busy("cli.write_csv"),
        "cli.write_csv_mb": count("cli.write_csv_bytes") / MIB,
        "cli.read_csv_mb": count("cli.read_csv_bytes") / MIB,
        "grid.sample_s": busy("grid.sample"),
        "grid.meshes_calls": count("grid.meshes_calls"),
        "grid.distribution_inits": count("grid.distribution_inits"),
        "grid.distribution_s": busy("grid.distribution"),
        "grid.norm_s": busy("grid.norm"),
        "families.analysis_s": busy("families.analysis"),
        "families.synthesis_s": busy("families.synthesis"),
        "families.transform_calls": count("families.transform_calls"),
        "families.transform_rows": count("families.transform_rows"),
        "families.transform_mb": count("families.transform_bytes") / MIB,
        "families.kernel_init_s": busy("families.kernel_init"),
        "families.kernel_mb": count("families.kernel_bytes") / MIB,
        "solver.solve_s": busy("solver.solve"),
        "solver.self_s": _self_time(spans, "solver.solve"),
        "solver.divide_s": busy("solver.divide"),
        "solver.residual_s": residual,
        "spectral.apply_s": busy("spectral.apply"),
        "green.left_inverse_s": busy("green.left_inverse"),
        "green.build_s": busy("green.build"),
        "green.self_s": _self_time(spans, "green.build"),
        "green.probes_s": busy("green.probes"),
        "green.peak_mb": count("green.peak_bytes") / MIB,
        "green.members_built": built,
        "green.members_written": written,
        "green.member_use_ratio": written / built if built else 0.0,
    }
