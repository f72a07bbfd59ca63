"""Smoke test of the benchmark at toy sizes (16^2 grids, 2^12 nodes).

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload, untraced and traced, it checks that every op passed its
reference check and that the result names every metric of BENCHMARK.json
with its unit.  It also checks that the benchmark refuses to run, with a
non-zero exit and no result, where the program's source is missing.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1"]


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace):
    cmd = [sys.executable] + RUN + ["--workload", workload, "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = result_of(proc.stdout)
    problems = []
    if proc.returncode != 0 or result is None:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"reference checks failed: {result.get('failed')} ops")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got.get("unit") != metric["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"bad entry for {metric['name']}: {got}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_refuses_without_source(spec):
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc.stdout) is not None:
        return [f"ran without the program's source (exit {proc.returncode})"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace {trace}")
            for p in problems:
                print(f"     {p}")
    problems = check_refuses_without_source(spec)
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without the source")
    for p in problems:
        print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
