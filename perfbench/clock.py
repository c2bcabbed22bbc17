"""Wall time corrected for the speed of a shared machine.

On a shared 2-vCPU machine the same Python loop runs up to twice as
slowly for seconds at a time, and the process's CPU time grows with its
wall time, so neither tells a slow program from a slow machine.  The
clock therefore probes the machine's speed while the program runs: every
50 ms a SIGALRM handler, in the benchmark's own thread, times a fixed
200-step `Fraction` loop.  A timed window then yields

- raw: its wall time minus the probes that ran inside it;
- corrected: raw * (mean probe rate in the window) / REFERENCE_RATE,
  the window's wall time at the reference speed.

REFERENCE_RATE is the probe's rate on an unloaded 2 GHz x86-64 vCPU
under CPython 3.11, so a corrected time reads as the wall time an
unloaded machine of that kind would show.  A window shorter than the
probe interval takes the rate of the two probes before and after it.
The same handler enforces the per-operation time limit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_STEPS = 200
INTERVAL_S = 0.05
REFERENCE_RATE = 280_000.0      # probe steps per second, unloaded


class OpTimeout(Exception):
    """An operation passed its time limit."""


def _probe():
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, PROBE_STEPS + 1):
        s += Fraction(1, k % 97 + 1)
    return t0, time.perf_counter()


class Clock:
    """Probing clock; install it with `with Clock() as clock:`."""

    def __init__(self):
        self.ends = []            # probe end times, increasing
        self.durations = []       # probe durations, same order
        self.deadline = None      # perf_counter time limit of the current op

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise OpTimeout("operation passed its time limit")
        t0, t1 = _probe()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def call(self, limit, fn, *args):
        """fn(*args) under a time limit; returns (result, window).  The
        window is the (start, end) pair that raw() and corrected() read."""
        self.deadline = time.perf_counter() + limit
        t0 = time.perf_counter()
        try:
            return fn(*args), (t0, time.perf_counter())
        finally:
            self.deadline = None

    def _inside(self, window):
        lo = bisect.bisect_left(self.ends, window[0])
        hi = bisect.bisect_right(self.ends, window[1])
        return lo, hi

    def raw(self, window):
        lo, hi = self._inside(window)
        return window[1] - window[0] - sum(self.durations[lo:hi])

    def corrected(self, window):
        lo, hi = self._inside(window)
        if hi - lo < 4:           # short window: widen to its neighbours
            lo, hi = max(lo - 2, 0), min(hi + 2, len(self.durations))
        if hi <= lo:
            return self.raw(window)
        rate = statistics.fmean(PROBE_STEPS / d
                                for d in self.durations[lo:hi])
        return self.raw(window) * rate / REFERENCE_RATE

    def probe_rate_quartiles(self):
        """Quartiles of the probe rate over the run, for the record."""
        rates = [PROBE_STEPS / d for d in self.durations]
        return statistics.quantiles(rates, n=4) if len(rates) > 1 else rates
