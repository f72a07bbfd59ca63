"""Runs one process for the benchmark and records what it cost.

    python3 perfbench/launch.py RESULT_JSON LIMIT_S CMD...

Forks and execs CMD, waits for it and writes
``{"start", "seconds", "exit_code", "rss_mb"}`` to RESULT_JSON: the
monotonic clock at the fork, the wall seconds from fork to exit, the exit code
and the peak RSS of CMD.  A CMD that runs longer than LIMIT_S is killed.

Why a launcher: Linux counts into a process's ``ru_maxrss`` the peak RSS of
the process it was forked from.  A child started straight from the
benchmark, which holds numpy and reference arrays, would report the
benchmark's own peak whenever the program's is lower.  This process imports
nothing heavy, so the peak it reads with ``wait4`` is the program's.
"""

import json
import os
import signal
import sys
import time


def main():
    result_path, limit, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, limit)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"start": start, "seconds": seconds,
                   "exit_code": os.waitstatus_to_exitcode(status),
                   "rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
