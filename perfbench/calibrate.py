"""Calibrated clock: timings in seconds at a fixed nominal machine speed.

On a shared machine the speed of the same Python code drifts by up to a
factor of two from one second to the next, with no steal time to account
for it, so raw times of one run cannot be compared with another's.  While a
pass runs, a SIGALRM handler times a fixed kernel every INTERVAL_S.  The
kernel calls no zmckit code.  It does exact rational arithmetic (Fraction,
from the standard library) and, for float workloads, also float work on a
small complex array in the style of the eigenvalue solver.  Its slowness is
its time over its nominal time (EXACT_NOMINAL_S, plus ARRAY_NOMINAL_S for
the array part).  Between two samples the clock
advances by the elapsed time divided by the slowness nearby, and the
handler's own time is left out, so a measured interval reads as the time it
would have taken at the speed where the kernel takes its nominal time.  A
program change moves the calibrated time by the same share as the raw time;
a machine slowdown moves the kernel too and cancels.  Slowdowns do not hit
all kinds of work alike, so each workload is calibrated with the kind of
work it does: with the exact part alone, the per-pass median op time of the
float-heavy spectrum workload varied about twice as much, while the array
part made the exact workloads' times several times less steady.

Handlers run between bytecodes of the main thread; inside a long native
call (numpy) the sample waits until the call returns.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

EXACT_NOMINAL_S = 200e-6
ARRAY_NOMINAL_S = 100e-6
INTERVAL_S = 0.01


def median(values) -> float:
    """Median without importing `statistics`, which would add to set-up time."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _array_work() -> None:
    import numpy as np

    h = (np.arange(36).reshape(6, 6) % 7 + 1j * (np.arange(36).reshape(6, 6) % 5)) / 7.0
    for k in range(6):
        a, b = h[k % 5, k % 5], h[k % 5 + 1, k % 5]
        s = np.sqrt(a * a / 4 - a * b + 0j)
        v = h[k % 5:, k % 5].copy()
        v /= np.linalg.norm(v) + 1.0
        h[k % 5:, k % 5:] -= 0.1 * np.outer(v, v.conj() @ h[k % 5:, k % 5:])
        h[k % 5, k % 5] = s if abs(s) < 10 else 1.0


def slowness(arrays: bool) -> float:
    """Time of one run of the kernel over its nominal time, with the
    collector paused so that the program's garbage is not collected inside
    the sample.  `arrays` adds the numpy part."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
        if not arrays:
            return (perf_counter() - started) / EXACT_NOMINAL_S
        _array_work()
        return (perf_counter() - started) / (EXACT_NOMINAL_S + ARRAY_NOMINAL_S)
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Context manager sampling machine speed while its block runs.

    After the block, `calibrated(t)` and `raw(t)` map a perf_counter()
    reading taken inside the block to seconds since the block started, with
    the sampling time removed; `calibrated` also rescales to nominal speed.
    `arrays` adds the numpy part to the kernel.
    """

    def __init__(self, arrays: bool = False):
        self.arrays = arrays
        self.samples: list[tuple[float, float, float]] = []  # (start, end, slowness)
        self._sampling = False

    def _sample(self, *_):
        if self._sampling:  # an overdue timer signal landed inside a sample
            return
        self._sampling = True
        started = perf_counter()
        slow = slowness(self.arrays)
        self.samples.append((started, perf_counter(), slow))
        self._sampling = False

    def __enter__(self) -> "SpeedClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # Gap j runs from the end of sample j to the start of sample j+1; its
        # speed is the median slowness of the four samples around it.
        slows = [k for _, _, k in self.samples]
        self._starts, self._ends, self._factors = [], [], []
        self._raw_at, self._cal_at = [], []
        raw = cal = 0.0
        for j in range(len(self.samples) - 1):
            start, end = self.samples[j][1], self.samples[j + 1][0]
            factor = 1.0 / median(slows[max(0, j - 1): j + 3])
            self._starts.append(start)
            self._ends.append(end)
            self._factors.append(factor)
            self._raw_at.append(raw)
            self._cal_at.append(cal)
            raw += end - start
            cal += (end - start) * factor

    def _map(self, t: float, calibrated: bool) -> float:
        j = bisect_right(self._starts, t) - 1
        if j < 0:
            return 0.0
        step = min(t, self._ends[j]) - self._starts[j]
        if calibrated:
            return self._cal_at[j] + step * self._factors[j]
        return self._raw_at[j] + step

    def calibrated(self, t: float) -> float:
        return self._map(t, True)

    def raw(self, t: float) -> float:
        return self._map(t, False)

    def median_slowness(self) -> float:
        """Median slowness of the kernel over the block."""
        return median(k for _, _, k in self.samples)
