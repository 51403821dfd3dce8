"""Machine-speed calibration for timings taken on a host whose speed drifts.

A fixed kernel, independent of hilbertgeom, runs about once a second
between ops.  An op's latency is scaled by the kernel's reference time over
the median kernel time of the three readings before and the three after the
op.  Timings then read as on a machine that runs the kernel in its
reference time: host-wide slowdowns that hit the kernel and the op alike
cancel out, while a change to the library moves the op and not the kernel.

CLI calls are left as measured: they are mostly process start, which did
not follow the drift.  A bare `python -c pass` took 64-65 ms through runs
in which the `FRACTION` kernel ranged over 6-14 ms, and scaling CLI calls
by a spawn kernel widened their spread.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

INTERVAL_NS = 1_000_000_000
NEIGHBOURS = 3

_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(8))
                for i in range(7))
_BIG = tuple(Fraction(2**40 + 7 * i + 1, 2**39 + 3 * i + 1) for i in range(30))
_THIRD = Fraction(1, 3)


def _fraction_work() -> None:
    """Row reduction of a fixed rational matrix and a sum of products of ~2^40-sized
    fractions: the kinds of work the LP kernel and the gauges do."""
    for _ in range(3):
        m = [list(row) for row in _MATRIX]
        for c in range(len(m)):
            p = next(i for i in range(c, len(m)) if m[i][c] != 0)
            m[c], m[p] = m[p], m[c]
            m[c] = [v / m[c][c] for v in m[c]]
            for i in range(len(m)):
                if i != c and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    s = Fraction(0)
    for _ in range(12):
        for x in _BIG:
            s = s + x * x - _THIRD
            if s > 10:
                s = s / 7


@dataclass(frozen=True)
class Kernel:
    name: str
    work: Callable[[], None]
    reference_ms: float

    def time_ns(self, clock=time.perf_counter_ns) -> int:
        t0 = clock()
        self.work()
        return clock() - t0

    def scale(self, *readings_ns: int) -> float:
        """Factor that takes a time measured next to these readings to reference speed."""
        return self.reference_ms * 1e6 / statistics.median(readings_ns)


FRACTION = Kernel("fraction", _fraction_work, 12.5)


def kernel_for(workload: str) -> Kernel | None:
    """The kernel that scales a workload's times, or None to keep them as measured."""
    return None if workload == "cli" else FRACTION


class SpeedLog:
    """Kernel timings through a run, and the scale factor they give each op.

    Without a kernel nothing is sampled and every factor is 1.
    """

    def __init__(self, kernel: Kernel | None = FRACTION, clock=time.perf_counter_ns):
        self.kernel = kernel
        self.clock = clock
        self.times: list[int] = []
        self.durations: list[int] = []

    def sample(self) -> None:
        if self.kernel is None:
            return
        self.times.append(self.clock())
        self.durations.append(self.kernel.time_ns(self.clock))

    def maybe_sample(self) -> None:
        if not self.times or self.clock() - self.times[-1] >= INTERVAL_NS:
            self.sample()

    def factor(self, start: int, end: int) -> float:
        """Reference-speed factor for an op that ran over [start, end]."""
        if self.kernel is None:
            return 1.0
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = self.durations[max(0, before - NEIGHBOURS):before] + self.durations[after:after + NEIGHBOURS]
        return self.kernel.scale(*(near or self.durations))

    def median_ms(self) -> float | None:
        return statistics.median(self.durations) / 1e6 if self.durations else None
