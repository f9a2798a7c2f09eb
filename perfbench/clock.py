"""Times scaled to a quiet host.

The benchmark's host is a few cores of a shared machine whose speed
drifts: for tens of seconds at a time everything the process runs, a
fixed pure-Python loop included, takes about 1.7 times as long, and CPU
time rises with wall time, so neither clock hides it.  Two runs of the
same code a minute apart then differ by more than any useful bound.

So the run interleaves calibration slices with its work: fixed work
that does not touch the package, in two parts timed apart, an
interpreter loop and small numpy calls, the two kinds of work the
package does.  (Random reads of a large list and passes over a large
array were tried as further parts: the first swung more than the
package under contention and the second hardly at all.)  Between two
operations `Clock.tick()` runs slices for `SHARE` of the time since the
last one; `burst()` runs several around set-up.  A slice's slowdown is
the mean over its parts of their time over their time on a quiet host.
The host's slowdown over a stretch of work is the mean slowdown of the
slices from `WINDOW_S` before it to `WINDOW_S` after it (at least
`MIN_SLICES` of the nearest); `scaled(t0, t1)` is the length of
[t0, t1], slices left out, divided by that slowdown wherever it falls.
Every time the benchmark reports is scaled so: it reads as the time the
host takes when quiet.  The raw times go to the run's record beside
them.

The scaling assumes the package leaves nothing running between its
calls; a thread that kept a core busy would slow the slices and make
the package look faster.  The raw times in the record show that.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

SHARE = 0.1  # calibration time per unit of work time
MIN_GAP_S = 0.01
MAX_BURST = 500
WINDOW_S = 1.0
MIN_SLICES = 16
CAP = 4.0  # a slice counts at most CAP times its window's median
WARMUP = 20

_M = np.arange(64, dtype=float).reshape(8, 8) / 64.0


def _loop() -> None:
    """Interpreter work: a small dict and integer arithmetic."""
    d: dict[int, int] = {}
    s = 0
    for i in range(1000):
        d[i & 127] = d.get(i & 127, 0) + i
        s += i * i % 7


def _matrices() -> None:
    """Small numpy calls, dominated by their per-call overhead."""
    m = _M
    for _ in range(50):
        m = np.tanh(m @ _M + 0.1)


# Each part with its time on a quiet host (2-core Xeon, Python 3.11); a
# slice's slowdown is the mean of the parts' times over these.
PARTS = ((_loop, 0.13e-3), (_matrices, 0.10e-3))
SLICE_S = sum(ref for _, ref in PARTS)


def _capped_mean(values: list[float]) -> float:
    """Mean, with each value capped at CAP times the median: contention
    bursts count in full, a lone stall of the whole process does not."""
    cap = CAP * statistics.median(values)
    return statistics.fmean(min(v, cap) for v in values)


class Clock:
    def __init__(self):
        for _ in range(WARMUP):
            for part, _ in PARTS:
                part()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowdowns: list[float] = []
        self._factors: list[float] | None = None

    def slice(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        stamps = [time.perf_counter()]
        for part, _ in PARTS:
            part()
            stamps.append(time.perf_counter())
        if enabled:
            gc.enable()
        self.starts.append(stamps[0])
        self.ends.append(stamps[-1])
        self.slowdowns.append(
            statistics.fmean((b - a) / ref for a, b, (_, ref) in zip(stamps, stamps[1:], PARTS))
        )
        self._factors = None

    def tick(self) -> None:
        """Between two operations: calibrate for SHARE of the time since the last slice."""
        if not self.ends:
            self.slice()
            return
        gap = time.perf_counter() - self.ends[-1]
        if gap >= MIN_GAP_S:
            self.burst(min(MAX_BURST, max(1, round(SHARE * gap / SLICE_S))))

    def burst(self, n: int = MIN_SLICES) -> None:
        for _ in range(n):
            self.slice()

    def _slowdown_near(self, lo: float, hi: float) -> float:
        """Slowdown from the slices whose midpoints lie in [lo, hi]."""
        mids = self._mids
        a, b = bisect.bisect_left(mids, lo), bisect.bisect_right(mids, hi)
        if b - a < MIN_SLICES:
            grow = MIN_SLICES - (b - a)
            a = max(0, a - (grow + 1) // 2)
            b = min(len(mids), a + MIN_SLICES)
            a = max(0, b - MIN_SLICES)
        return _capped_mean(self.slowdowns[a:b])

    def _gap_factors(self) -> list[float]:
        """Slowdown of each gap: before slice 0, between i-1 and i, after the
        last; from the slices up to WINDOW_S before and after the gap."""
        if self._factors is None:
            if not self.starts:
                raise RuntimeError("no calibration slices recorded")
            self._mids = [(a + b) / 2 for a, b in zip(self.starts, self.ends)]
            first, last = self.starts[0], self.ends[-1]
            gaps = [(first, first)] + list(zip(self.ends, self.starts[1:])) + [(last, last)]
            self._factors = [self._slowdown_near(lo - WINDOW_S, hi + WINDOW_S) for lo, hi in gaps]
        return self._factors

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] on a quiet host, calibration slices left out."""
        factors = self._gap_factors()
        starts, ends = self.starts, self.ends
        total = 0.0
        g = bisect.bisect_right(ends, t0)  # first gap that can overlap [t0, t1]
        while g <= len(starts):
            lo = ends[g - 1] if g > 0 else float("-inf")
            hi = starts[g] if g < len(starts) else float("inf")
            if lo >= t1:
                break
            span = min(hi, t1) - max(lo, t0)
            if span > 0:
                total += span / factors[g]
            g += 1
        return total

    def slowdown(self) -> float:
        """Median slowdown over the run, for the record."""
        return statistics.median(self._gap_factors())
