"""Host-speed normalisation for timings taken on a shared machine.

On a shared 2-vCPU host the same work runs up to about 1.6x slower in phases
that last from seconds to longer than a whole run, with no steal time to show
for it, so raw seconds spread by 20-30 % between runs.  Every timed call is
therefore paired with the speed of the host during it: a fixed kernel shaped
like netbell's hot loops (about 0.4 ms) is timed before and after the call
and, from a SIGALRM handler, every ``PERIOD_S`` during it.  A call's
normalised time is its own time minus the handler's, times ``REFERENCE_S``
over the kernel's mean time around it.

The benchmark pins itself and its children to one CPU and runs the children
below its own priority, so the handler preempts a child and times the CPU the
child runs on; the child waits while it does, which the subtraction removes.
Normalised times compare runs and commits of one workload; they are not
wall-clock seconds, and the raw seconds are kept next to them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0004
PERIOD_S = 0.05
QUARTER_PI = math.pi / 4
clock = time.perf_counter


class HostSpeed:
    def __init__(self):
        self.kernel_s: list[float] = []   # every kernel timing, in order
        self.paused_s = 0.0               # handler time so far
        self._busy = False
        self._old = None
        # shaped like netbell's hot loops: per-term trig products over an
        # angle dict, a power transform, and one small numpy call
        self._terms = [tuple(((f"A{j}", "ZX"), (j + t) & 1) for j in range(6))
                       for t in range(12)]
        self._angles = {(f"A{j}", "ZX"): 0.3 + 0.1 * j for j in range(6)}
        self._data = np.random.default_rng(0).random(4_000)

    def _kernel(self) -> float:
        start = clock()
        angles, total = self._angles, 0.0
        for _ in range(20):
            for trig in self._terms:
                if all(angles[k] == QUARTER_PI for k, _ in trig):
                    continue
                prod = 1.0
                for key, e in trig:
                    theta = angles[key]
                    prod *= math.sin(theta) if e else math.cos(theta)
                total += abs(prod) ** 0.5
        np.sort(self._data)
        return clock() - start

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        start = clock()
        self.kernel_s.append(self._kernel())
        self.paused_s += clock() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def probe(self) -> None:
        """One sample: the median of three kernel runs, robust to a stray interrupt."""
        self._busy = True
        try:
            self.kernel_s.append(statistics.median(self._kernel() for _ in range(3)))
        finally:
            self._busy = False

    def timed(self, call, *args):
        """Run ``call(*args)``; returns (result, seconds, mean kernel seconds).

        The caller probes before the first call; each call probes after itself.
        """
        first, paused = len(self.kernel_s) - 1, self.paused_s
        start = clock()
        result = call(*args)
        seconds = clock() - start - (self.paused_s - paused)
        self.probe()
        return result, seconds, statistics.fmean(self.kernel_s[first:])

    @staticmethod
    def normalise(seconds: float, kernel: float) -> float:
        return seconds * REFERENCE_S / kernel
