"""CPU time corrected for the machine's speed at the moment it was spent.

On a shared host the CPU time of fixed work drifts by up to 2x within tens
of seconds (the host's load on the same physical core comes and goes), and
neither wall time nor CPU time shows why.  A SpeedMeter therefore runs a
small fixed kernel every `period` CPU seconds of the process it measures,
from a SIGPROF handler, and converts the CPU time spent between two kernel
runs into reference seconds: the time it would have taken where the kernel
takes REF_KERNEL_S.  The kernel's own CPU time is left out.

The kernel is timed with the thread's CPU clock.  While ITIMER_PROF is
armed, Linux serves the process CPU clock from a total that is brought up
to date only at scheduler ticks, so a few-ms kernel can read as 0 on it.
The work between kernel runs is timed with the process clock, so that CPU
time of any other thread counts too; its tick error is far below a period.

Interpreter-bound and array-bound code speed up by different amounts when
the core frees up, so there are two kernels, and each workload uses the
one that matches what dominates it:

- python_kernel: number formatting and parsing, dict updates, a keyed
  sort, repr.  It imports nothing, so it can also time an import.
- array_kernel(): NumPy ufuncs on arrays of 2,000 and 8,000 floats, the
  order of the solver's grids.

On a 2-vCPU Xeon guest where the raw CPU time of a fixed pass varied by
25-30% between runs, the matching kernel brought it to 1-5%; the other
kernel left 8-15%.
"""
from __future__ import annotations

import signal
import time
from typing import Callable

REF_KERNEL_S = 3e-3  # a kernel's CPU time at reference speed
_ROWS = [(i, i * 0.1, f"k{i % 97}") for i in range(300)]
_NESTED = {f"k{i}": [i * 0.1, str(i), (i, -i)] for i in range(100)}


def python_kernel() -> float:
    """Fixed interpreter work, independent of the measured program (~3 ms)."""
    total = 0.0
    for _ in range(3):
        text = "\n".join(f"{i},{x!r},{key}" for i, x, key in _ROWS)
        sums: dict[str, float] = {}
        for line in text.split("\n"):
            i, x, key = line.split(",")
            sums[key] = sums.get(key, 0.0) + float(x) * int(i)
        total += sorted(sums.items(), key=lambda kv: kv[1])[-1][1]
        total += len(repr(_NESTED))
    return total


def array_kernel() -> Callable[[], float]:
    """Fixed array work (~3 ms).  Imports NumPy: build it after any import
    that is being timed."""
    import numpy as np
    big = np.linspace(0.0, 1.0, 8000)
    big_rev = big[::-1].copy()
    small = np.linspace(0.0, 1.0, 2000)
    small_rev = small[::-1].copy()

    def kernel() -> float:
        a, b = big, small
        for _ in range(70):
            a = np.sqrt(np.abs(a * 0.999 + big_rev))
        for _ in range(200):
            b = b * 0.999 + small_rev
        return float(a[0] + b[0])

    return kernel


class SpeedMeter:
    """Measures the reference seconds of the CPU time between start and stop.

    Only one meter runs in a process at a time; it owns SIGPROF and
    ITIMER_PROF while it runs.
    """

    def __init__(self, period: float, kernel: Callable[[], float]) -> None:
        self.period = period  # CPU seconds between kernel runs
        self.kernel = kernel
        self._running = False
        # (process CPU time at kernel start, at kernel end, kernel thread CPU s)
        self.samples: list[tuple[float, float, float]] = []
        self._old_handler = None

    def _sample(self) -> None:
        p0, t0 = time.process_time(), time.thread_time()
        self.kernel()
        t1, p1 = time.thread_time(), time.process_time()
        self.samples.append((p0, p1, t1 - t0))

    def _tick(self, signum, frame) -> None:
        # a SIGPROF raised just before stop() disarms the timer is handled
        # during stop(); re-arming then would kill the process once the
        # default action is back, so a stopped meter does nothing
        if self._running:
            self._sample()
            signal.setitimer(signal.ITIMER_PROF, self.period)  # one-shot

    def start(self) -> None:
        self.samples = []
        self.kernel()  # warm-up, untimed
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        self._running = True
        self._tick(None, None)

    def stop(self) -> dict:
        """Stop the meter; returns cpu_s (CPU seconds outside the kernel runs)
        and ref_s (the same time in reference seconds)."""
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample()
        signal.signal(signal.SIGPROF, self._old_handler)
        cpu_s = ref_s = 0.0
        for (_, end0, k0), (start1, _, k1) in zip(self.samples, self.samples[1:]):
            work = start1 - end0
            cpu_s += work
            ref_s += work * REF_KERNEL_S / (0.5 * (k0 + k1))
        return {"cpu_s": cpu_s, "ref_s": ref_s, "kernels": len(self.samples)}
