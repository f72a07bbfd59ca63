"""Line gate: every executable line of ``src/schwartzcalc`` runs under tier-1.

Runs the tier-1 suite in this process through ``pytest.main`` with a line
tracer on (``sys.settrace``, and ``threading.settrace`` for the threads the
tests start) that records only frames of ``src/schwartzcalc``.  A module's
executable lines are the lines of its code objects (``co_lines``).  The gate
fails, naming them, on every such line that did not run and is not listed in
``tests/line_gate_allow.txt``, and on every listed line that ran or is not
executable.  Each line of that file reads ``module.py:LINE reason``.

Lines run only in a child process (the CLI subprocess tests) do not count.

Usage, from any directory::

    python tests/line_gate.py

Exit status: pytest's own when the suite fails, 1 when the gate fails, else 0.
The file's name keeps pytest from collecting it.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schwartzcalc"
ALLOW = Path(__file__).with_name("line_gate_allow.txt")


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from ``path``."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def allowed_lines() -> set[tuple[str, int]]:
    """The ``(module file name, line)`` pairs of the allowlist, each with a reason."""
    allowed = set()
    for number, text in enumerate(ALLOW.read_text(encoding="utf-8").splitlines(), 1):
        if not text.strip() or text.startswith("#"):
            continue
        where, _, reason = text.partition(" ")
        name, _, line = where.partition(":")
        if not line.isdigit() or not reason.strip():
            raise SystemExit(f"{ALLOW.name}:{number}: expected 'module.py:LINE reason', got {text!r}")
        allowed.add((name, int(line)))
    return allowed


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for ``args`` and the ``(file, line)`` pairs run in the package."""
    prefix = str(PACKAGE) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.add((filename, frame.f_lineno))  # the def line, as the call reports it
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = traced_run(["-q", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning",
                            str(ROOT / "tests")])
    if code != 0:
        print(f"line gate: tier-1 failed (pytest exit {code})", file=sys.stderr)
        return code
    allowed = allowed_lines()
    unrun, stale = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        hit = {line for filename, line in ran if filename == str(path)}
        unrun += [f"{path.name}:{line}" for line in sorted(executable - hit)
                  if (path.name, line) not in allowed]
        stale += [f"{path.name}:{line}" for name, line in sorted(allowed)
                  if name == path.name and (line in hit or line not in executable)]
    known = {path.name for path in PACKAGE.glob("*.py")}
    stale += [f"{name}:{line}" for name, line in sorted(allowed) if name not in known]
    for where in unrun:
        print(f"line gate: {where} did not run", file=sys.stderr)
    for where in stale:
        print(f"line gate: {where} is allowed but ran or is not executable", file=sys.stderr)
    if unrun or stale:
        return 1
    print(f"line gate: every executable line ran, {len(allowed)} allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
