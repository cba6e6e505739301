"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds, which no run length that fits the time budget averages
out. So a measured pass is interleaved with a fixed calibration slice:
pure Python of the same kind as the package (permutations, tuples, dicts,
sorting), independent of the package, run from a SIGALRM handler every
INTERVAL_S of wall time. A stretch of work between two slices is scaled
by REFERENCE_S over the median time of the WINDOW slices on either side
of it, so every reported time is a time at the speed at which one slice
takes REFERENCE_S; the median keeps one slice hit by an interrupt from
skewing the work around it. Slices are never counted as work. Passes of
identical input then agree within a few percent while their raw wall
times differ by up to half.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import permutations
from typing import Callable

import oracle

# A fixed constant: about one slice's time on a 2-vCPU x86-64 host.
REFERENCE_S = 0.008
INTERVAL_S = 0.05
WINDOW = 2
CAL_GRAPHS = (
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (2, 4), (1, 5), (0, 5)),
)


def calibration_slice() -> int:
    """Fixed work: cost and crossing test of every arrangement of three
    6-vertex graphs, kept in a dict."""
    total = 0
    for edges in CAL_GRAPHS:
        costs = {}
        for pos in permutations(range(1, 7)):
            costs[pos] = oracle.cost(pos, edges) if oracle.crossing_free(pos, edges) else -1
        total += sum(costs.values())
    return total


class HostSpeed:
    """Calibration slices around and inside a timed block.

    Use as a context manager: a slice runs on entry, every `interval`
    seconds inside the block (from a SIGALRM handler, so between any two
    bytecodes of the work) and on exit. Times taken inside the block with
    `clock` are then converted by `work` (raw, slices excluded) and
    `scaled` (at reference speed). Disabled, it runs no slices and both
    return plain differences.
    """

    def __init__(self, enabled: bool = True, interval: float = INTERVAL_S, window: int = WINDOW,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.interval = interval
        self.window = window
        self.clock = clock
        self.slices: list[tuple[float, float]] = []
        self._saved = None

    def slice(self) -> None:
        start = self.clock()
        calibration_slice()
        self.slices.append((start, self.clock()))

    def _on_alarm(self, signum, frame) -> None:
        self.slice()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "HostSpeed":
        if self.enabled:
            self.slice()
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self.slice()

    def _gaps(self, start: float, end: float):
        """(length, local slice time) of each work stretch inside [start, end]."""
        times = [b - a for a, b in self.slices]
        for i in range(len(self.slices) - 1):
            lo, hi = max(self.slices[i][1], start), min(self.slices[i + 1][0], end)
            if hi > lo:
                yield hi - lo, statistics.median(times[max(0, i + 1 - self.window):i + 1 + self.window])

    def work(self, start: float, end: float) -> float:
        if not self.enabled:
            return end - start
        return sum(length for length, _ in self._gaps(start, end))

    def scaled(self, start: float, end: float) -> float:
        if not self.enabled:
            return end - start
        return sum(length * REFERENCE_S / local for length, local in self._gaps(start, end))

    def slice_median(self) -> float:
        times = sorted(b - a for a, b in self.slices)
        return times[len(times) // 2] if times else 0.0
