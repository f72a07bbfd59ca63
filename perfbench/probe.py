"""Machine-speed probe: fixed numpy FFT and string-formatting work.

Shared machines change speed by up to a factor of two within seconds, when
the host runs other work on the same physical core.  The benchmark times a
probe before and after every op; an op's time divided by the probe time
around it is its cost in probe units, which stays put while the machine's
speed moves.  The probe never touches schwartzcalc.

CLI workloads time the probe as a whole process, like their ops::

    python3 perfbench/probe.py '{"fft_shape": [65536], "fft_passes": 8, "floats": 50000}'

The library workload calls ``Probe`` in its own loop process.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


class Probe:
    """Fixed work with its inputs made once, so that a call times only the work."""

    def __init__(self, fft_shape, fft_passes, floats):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal(fft_shape) + 1j * rng.standard_normal(fft_shape)
        self.fft_passes = fft_passes
        self.values = rng.standard_normal(floats).tolist()

    def __call__(self):
        """Seconds spent on the FFT part, the formatting part and both."""
        a = self.signal
        t0 = time.perf_counter()
        for _ in range(self.fft_passes):
            a = np.fft.ifft(np.fft.fft(a))
        t1 = time.perf_counter()
        text = ",".join(f"{v!r}" for v in self.values)
        t2 = time.perf_counter()
        return {"fft_s": t1 - t0, "format_s": t2 - t1, "total_s": t2 - t0,
                "chars": len(text)}


#: the probe timed at the start and the end of every run
RUN_PROBE = {"fft_shape": [1 << 18], "fft_passes": 8, "floats": 100_000}


def normalize(records, probes):
    """Set ``probe_s`` and ``norm`` on each op record from the probe times
    before and after it (``len(probes) == len(records) + 1``)."""
    for r, before, after in zip(records, probes, probes[1:]):
        r["probe_s"] = 0.5 * (before["total_s"] + after["total_s"])
        r["norm"] = r["seconds"] / r["probe_s"] if r.get("seconds") is not None else None


if __name__ == "__main__":
    Probe(**json.loads(sys.argv[1]))()
