"""schwartzcalc benchmark: one closed-loop client, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-solve-2d --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
alternates traced and untraced ops and reports the per-layer metrics.  Every
op is checked against an independent numpy reference.  The last line of
stdout is the JSON result; the full report, the spans and the per-op
records go to ``.bench_work/<workload>/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import probe
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: where ``launch.py`` writes what a process cost; one process runs at a time
LAUNCH_RESULT = WORK / "launch.json"

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: a single program process that runs longer than this is killed and failed
PROCESS_LIMIT_S = 120.0

OPERATOR = {"0,0": 1, "2,0": -1, "0,2": -1}  # 1 - Laplacian in 2-d

# name -> sizes at full scale and at the smoke test's toy scale; "probe" is
# the fixed work timed around each op, shaped like the op (see probe.py)
SMALL_PROBE = {"fft_shape": [1 << 12], "fft_passes": 2, "floats": 1000}
WORKLOADS = {
    "cli-solve-2d": {
        "full": {"n": 256, "half_extent": 20.0, "band": 24,
                 "probe": {"fft_shape": [1 << 16], "fft_passes": 8, "floats": 50_000}},
        "toy": {"n": 16, "half_extent": 20.0, "band": 3, "probe": SMALL_PROBE}},
    "lib-solve-1d": {
        "full": {"n": 1 << 20, "half_extent": 40.0, "band": 4096,
                 "probe": {"fft_shape": [1 << 19], "fft_passes": 2, "floats": 0}},
        "toy": {"n": 1 << 12, "half_extent": 40.0, "band": 64, "probe": SMALL_PROBE}},
    "cli-green-2d": {
        "full": {"n": 48, "half_extent": 8.0, "members": 4,
                 "probe": {"fft_shape": [2304, 2304], "fft_passes": 1, "floats": 20_000}},
        "toy": {"n": 16, "half_extent": 8.0, "members": 4, "probe": SMALL_PROBE}},
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(cmd, log, stdout=subprocess.DEVNULL):
    """Start ``cmd`` through ``launch.py``, with the program's source on its
    path.  The launcher kills ``cmd`` after PROCESS_LIMIT_S; a watchdog here
    kills both, should the launcher itself hang."""
    LAUNCH_RESULT.unlink(missing_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(LAUNCH_RESULT),
                str(PROCESS_LIMIT_S)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(launcher + cmd, stdout=stdout, stderr=log, env=child_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    watchdog = threading.Timer(PROCESS_LIMIT_S + 30.0, kill_group, (proc.pid,))
    watchdog.start()
    return proc, watchdog, t0


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(proc, watchdog, t0):
    """Wait for the launcher; returns ``cmd``'s (start, wall seconds, exit
    code, peak RSS MiB).  Without the launcher's record the times are the
    launcher's and the RSS reads 0."""
    try:
        proc.wait()
    finally:
        watchdog.cancel()
    try:
        r = json.loads(LAUNCH_RESULT.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return t0, time.perf_counter() - t0, proc.returncode or -1, 0.0
    return r["start"], r["seconds"], r["exit_code"], r["rss_mb"]


def run_process(cmd, log_path):
    with open(log_path, "ab") as log:
        return reap(*spawn(cmd, log))[1:]


def tail(seconds):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(seconds)
    if n < 11:
        return None
    i = n - 11
    return {"value": sorted(seconds)[i], "percentile": 100.0 * (i + 1) / n,
            "beyond": n - 1 - i, "samples": n}


# ---------------------------------------------------------------------------
# CLI workloads: one ``python -m schwartzcalc`` process per op


class CliWorkload:
    def __init__(self, size, seed, work):
        self.size = size
        self.work = work
        self.out = work / "out"
        self.log = work / "program.log"
        self.rng = np.random.default_rng(seed)
        self.hashes = {}
        self.verified = {}
        n, half = size["n"], size["half_extent"]
        config = {
            "grid": {"dim": 2, "counts": [n, n], "half_extents": [half, half]},
            "operator": {"type": "differential", "coefficients": OPERATOR},
            "output": {"directory": str(self.out)},
        }
        self.prepare(config)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    def op(self, op_id, traced):
        """Run one op; returns its record, checked against the reference."""
        shutil.rmtree(self.out, ignore_errors=True)
        args = self.cli_args()
        if traced:
            spans_path = self.work / f"spans_{op_id}.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path)] + args
        else:
            cmd = [sys.executable, "-m", "schwartzcalc"] + args
        seconds, code, rss = run_process(cmd, self.log)
        record = {"op": op_id, "traced": traced, "seconds": seconds, "rss_mb": rss,
                  "exit_code": code}
        try:
            problem = self.check() if code == 0 else f"exit code {code}"
        except (OSError, ValueError, KeyError) as exc:
            problem = f"bad output: {type(exc).__name__}: {exc}"
        record["ok"] = problem is None
        if problem:
            record["error"] = problem
        if traced and spans_path.exists():
            record["spans"] = spans.load(spans_path).get(0)
        return record

    def time_probe(self):
        """Wall time of one probe process (``probe.py``), shaped like the op."""
        cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(self.size["probe"])]
        seconds, code, _ = run_process(cmd, self.log)
        if code != 0:
            raise RuntimeError(f"probe process failed with exit code {code}; see {self.log}")
        return {"total_s": seconds}

    def check_csv(self, name, want):
        """Relative error of output ``name`` against ``want()``.  Bytes that
        already passed the reference check pass again without re-reading."""
        digest = reference.sha256_file(self.out / name)
        self.hashes.setdefault(name, set()).add(digest)
        if digest in self.verified.get(name, ()):
            return 0.0
        err = reference.check_grid_csv(
            self.out / name, self.size["n"], self.size["half_extent"], want())
        if err <= reference.REL_TOL:
            self.verified.setdefault(name, set()).add(digest)
        return err

    def report_json(self):
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        if report.get("status") != "ok":
            raise ValueError(f"report status {report.get('status')!r}")
        return report


class CliSolve(CliWorkload):
    """``schwartzcalc solve`` on a seeded band-limited 2-d samples datum."""

    def prepare(self, config):
        n, half = self.size["n"], self.size["half_extent"]
        datum = reference.band_limited(self.rng, (n, n), self.size["band"])
        samples = self.work / "samples.csv"
        reference.write_samples_csv(samples, datum, half)
        config["datum"] = {"kind": "samples", "path": str(samples)}
        self.expected = reference.solve_reference(datum, half)

    def cli_args(self):
        return ["solve", "--config", str(self.config)]

    def check(self):
        self.report_json()
        err = self.check_csv("solution.csv", lambda: self.expected)
        if not err <= reference.REL_TOL:
            return f"solution.csv differs from the reference by {err:.3e}"
        return None


class CliGreen(CliWorkload):
    """``schwartzcalc green`` at seeded grid nodes on the dense path."""

    def prepare(self, config):
        n, half = self.size["n"], self.size["half_extent"]
        # only grid nodes, passed as --index=P: see README, "Known defects"
        nodes = self.rng.integers(0, n, size=(self.size["members"], 2))
        self.points = [tuple(reference.axis_points(n, half)[k].tolist()) for k in nodes]

    def cli_args(self):
        return ["green", "--config", str(self.config)] + [
            "--index=" + ",".join(repr(c) for c in p) for p in self.points]

    def check(self):
        report = self.report_json()
        if report.get("route") != "reciprocal":
            return f"route {report.get('route')!r}, expected 'reciprocal'"
        residuals = list(report["weak_residuals"].values())
        residuals.append(report["max_weak_residual_all_indices"])
        if not max(residuals) <= 1e-10:
            return f"weak residual {max(residuals):.3e} above 1e-10"
        n, half = self.size["n"], self.size["half_extent"]
        for k, p in enumerate(self.points):
            name = f"green_{k:03d}.csv"
            err = self.check_csv(name, lambda: reference.green_reference(n, half, p))
            if not err <= reference.REL_TOL:
                return f"{name} differs from the closed-form member by {err:.3e}"
        return None


def run_cli_workload(workload, seconds, trace, min_ops):
    warmups = [workload.op(-1 - k, traced=False) for k in range(SETUPS)]
    ops, probes = [], [workload.time_probe()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        op_id = len(ops) + 1
        ops.append(workload.op(op_id, traced=trace and op_id % 2 == 0))
        probes.append(workload.time_probe())
    probe.normalize(ops, probes)
    return {"setups": [r["seconds"] for r in warmups], "warmups": warmups, "ops": ops,
            "peak_rss_mb": max(r["rss_mb"] for r in ops)}


# ---------------------------------------------------------------------------
# library workload: the loop runs in one child process, for its ru_maxrss


def run_lib_workload(size, seed, seconds, trace, min_ops, work):
    params = dict(size, seed=seed, seconds=seconds, trace=trace, min_ops=min_ops,
                  spans_path=str(work / "spans_lib.json"), setup_only=False)
    setups = []
    warmups = []
    log = work / "program.log"
    for k in range(SETUPS):
        last = k == SETUPS - 1
        params["setup_only"] = not last
        cmd = [sys.executable, str(HERE / "child.py"), "lib", json.dumps(params)]
        with open(log, "ab") as log_fh:
            proc, watchdog, t0 = spawn(cmd, log_fh, stdout=subprocess.PIPE)
            try:
                ready = json.loads(proc.stdout.readline() or "{}")
                ready_at = time.perf_counter()
                result = json.loads(proc.stdout.readline() or "{}") if last else {}
            finally:
                proc.stdout.close()
                start, _, code, rss = reap(proc, watchdog, t0)
        if not ready.get("ready") or code != 0:
            raise RuntimeError(f"library child failed with exit code {code}; see {log}")
        setups.append(ready_at - start - ready["excluded_s"])
        warmups.append(ready["warmup"])
    ops = result["ops"]
    if trace:
        by_op = spans.load(params["spans_path"])
        for r in ops:
            if r["traced"]:
                r["spans"] = by_op.get(r["op"])
    return {"setups": setups, "warmups": warmups, "ops": ops, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------


def import_seconds(work):
    """Wall time of fresh ``python -c "import schwartzcalc"`` processes."""
    times = []
    for _ in range(SETUPS):
        seconds, code, _ = run_process(
            [sys.executable, "-c", "import schwartzcalc"], work / "program.log")
        if code != 0:
            raise RuntimeError(f"import schwartzcalc failed with exit code {code}")
        times.append(seconds)
    return statistics.median(times)


def per_layer(name, run, import_s):
    """Medians over the traced ops of each per-layer metric, plus the tracing
    overhead and the part of an op that no span covers."""
    traced = [r for r in run["ops"] if r["traced"] and r["ok"] and r.get("spans")]
    plain = [r["seconds"] for r in run["ops"] if not r["traced"] and r["ok"]]
    if not traced or not plain:
        raise RuntimeError("the traced run needs one good traced and one good untraced op")
    per_op = [spans.op_metrics(r["spans"]["spans"], r["spans"]["counters"]) for r in traced]
    metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    metrics["init.import_s"] = import_s
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(plain)
    if name.startswith("cli-"):
        metrics["trace.uncovered_s"] = (
            statistics.median(plain) - import_s - metrics["cli.main_s"])
    else:
        op_spans = [sum(s[3] - s[2] for s in r["spans"]["spans"] if s[1] == "op")
                    for r in traced]
        metrics["trace.uncovered_s"] = statistics.median(
            op - m["solver.solve_s"] for op, m in zip(op_spans, per_op))
    missing = sorted({x for r in traced for x in r["spans"].get("missing", [])})
    return metrics, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (16^2, 2^12) for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "schwartzcalc" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    size = WORKLOADS[name]["toy" if args.toy else "full"]
    trace = bool(args.trace)
    min_ops = 2 if trace else 1
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run_probe = probe.Probe(**probe.RUN_PROBE)
    probe_start = run_probe()
    import_s = import_seconds(work) if trace else None
    if name == "lib-solve-1d":
        run = run_lib_workload(size, args.seed, args.seconds, trace, min_ops, work)
        hashes = {}
    else:
        workload = (CliSolve if name == "cli-solve-2d" else CliGreen)(size, args.seed, work)
        run = run_cli_workload(workload, args.seconds, trace, min_ops)
        hashes = {k: sorted(v) for k, v in workload.hashes.items()}
    probe_end = run_probe()

    all_ops = run["warmups"] + run["ops"]
    failed = [r for r in all_ops if not r["ok"]]
    good_ops = [r for r in run["ops"] if r["ok"] and not r["traced"]]
    good = [r["seconds"] for r in good_ops]
    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "ops": len(run["ops"]), "attempted": len(all_ops),
        "failed": len(failed), "error_rate": len(failed) / len(all_ops),
        "failures": [{"op": r["op"], "error": r.get("error")} for r in failed],
        "op_seconds": [r["seconds"] for r in run["ops"]],
        "op_probe_s": [r["probe_s"] for r in run["ops"]],
        "op_p50_s": statistics.median(good) if good else None, "op_tail_s": tail(good),
        "op_probe_p50_s": statistics.median(r["probe_s"] for r in run["ops"]),
        "setups_s": run["setups"],
        "machine_probe": {"start": probe_start, "end": probe_end},
        "sha256": hashes,
    }
    if trace:
        metrics, report["missing_boundaries"] = per_layer(name, run, import_s)
    else:
        # with no good op, time the failed ones: the result still says correct: false
        timed = good_ops or [r for r in run["ops"] if r["seconds"] is not None]
        if not timed:
            raise RuntimeError("no op ran to completion")
        metrics = {"op_p50_norm": statistics.median(r["norm"] for r in timed),
                   "peak_rss_mb": run["peak_rss_mb"],
                   "setup_s": statistics.median(run["setups"])}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    with open(work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({str(r["op"]): r.pop("spans") for r in run["ops"] if "spans" in r}, fh)
    with open(work / "ops.json", "w", encoding="utf-8") as fh:
        json.dump(all_ops, fh, indent=1)
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(run['ops'])}  attempted {len(all_ops)}  failed {len(failed)}")
    for key, entry in report["metrics"].items():
        print(f"  {key:26s} {entry['value']:.6g} {entry['unit']}")
    p50 = report["op_p50_s"]
    print(f"  {'op_p50_s':26s} " + (f"{p50:.6g} s ({len(good)} untraced ops)" if good
                                    else "n/a: no good untraced op"))
    print(f"  {'op_probe_p50_s':26s} {report['op_probe_p50_s']:.6g} s (probe around each op)")
    t = report["op_tail_s"]
    print(f"  {'op_tail_s':26s} " + (
        f"{t['value']:.6g} s (p{t['percentile']:.0f}, {t['beyond']} of {t['samples']} ops beyond)"
        if t else f"n/a: needs >= 11 untraced ops, got {len(good)}"))
    print(f"  {'error_rate':26s} {report['error_rate']:.6g} ratio "
          f"({len(failed)} of {len(all_ops)} ops)")
    for when in ("start", "end"):
        p = report["machine_probe"][when]
        print(f"  machine probe {when:5s}      fft {p['fft_s']:.4f} s  format {p['format_s']:.4f} s")
    for out_name, digests in hashes.items():
        print(f"  sha256 {out_name}: {' '.join(digests)}")
    print(f"report: {work.relative_to(ROOT) / 'report.json'}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
