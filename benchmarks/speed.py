"""How fast the shared box runs right now, sampled during a run.

On the 2-core box the same code runs up to about 1.6 times slower for
stretches of seconds to minutes, as other tenants load the machine (process
CPU time follows wall time, so the process is slowed, not descheduled). While
a run measures, a SIGALRM handler times a fixed loop of interpreter and
small-matrix work every PERIOD seconds. A timed interval is then reported at
the reference speed: its wall time, less the handler's own time inside it,
times REFERENCE_S over the median loop time sampled during it. The loop does
not call the program, so a change to the program moves the scaled times as it
moves the wall times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.2
REFERENCE_S = 4.5e-4   # the loop's typical time on the 2-core Xeon box
MIN_SAMPLES = 5        # short intervals borrow the nearest samples

_A = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def _loop() -> float:
    acc = 0.0
    for i in range(36):
        acc += float((_A @ _A)[i % 32, 0])
        table = {j: j * 0.5 for j in range(40)}
        acc += sum(v for v in table.values() if v > 3)
    return acc


class SpeedProbe:
    """Samples the loop time on a timer while used as a context manager."""

    def __init__(self):
        self.at = []      # sample times
        self.cost = []    # handler durations
        self.loop = []    # loop durations

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.loop.append(t1 - t0)
        self.at.append(t1)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, t0: float, t1: float) -> float:
        """The wall time of [t0, t1] at the reference speed."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        own = sum(self.cost[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if hi == lo:
            return t1 - t0
        return (t1 - t0 - own) * REFERENCE_S / statistics.median(
            self.loop[lo:hi])
