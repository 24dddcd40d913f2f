"""Host speed, timed with a fixed pure-Python loop that never touches gridlabel.

On a 2-vCPU Intel Xeon VM shared with other tenants, all work (this loop,
numpy kernels, process start) slows down together by 30-100 % for seconds to
minutes at a time, one vCPU at a time. Raw medians of two 25 s runs a minute
apart then differ by more than any bound worth setting: ten runs of the
certify workload spread by 35 % between quartiles. So each pass, and each
set-up sample, is pinned to one CPU and timed together with this loop on that
CPU, and its time is scaled to a host on which the loop takes REFERENCE_S.
Within a pass the loop runs again every CALIBRATE_EVERY_S (see Scaler), so
that a slowdown that starts or ends mid-pass is caught.
The loop is the benchmark's own code, so a change to gridlabel moves the
scaled time exactly as much as the raw one; run records keep both.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

# The loop's time on that VM when quiet (Python 3.11).
REFERENCE_S = 0.0075
LOOP_ITERATIONS = 100_000
REPEATS = 3
CALIBRATE_EVERY_S = 0.3


def loop_s() -> float:
    """Best of REPEATS timings of the fixed loop on the current CPU."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, loop_seconds: float) -> float:
    """``seconds`` measured while the loop took ``loop_seconds``, on the
    reference host."""
    return seconds * REFERENCE_S / loop_seconds


@contextmanager
def pinned(cpus: list[int], index: int):
    """Pin this process, and the children it starts, to one allowed CPU,
    taken in turn by ``index``."""
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Scaler:
    """Raw and scaled total of a sequence of timed steps.

    The loop runs when the scaler is made and again after any step that
    ends CALIBRATE_EVERY_S or more after the last loop; the steps in between
    are scaled by the mean of the loops on either side. Untimed work between
    steps (checking outputs) counts towards the interval.
    """

    def __init__(self):
        self.raw = self.scaled = self._pending = 0.0
        self.loops = [loop_s()]
        self._since = perf_counter()

    def add(self, seconds: float) -> None:
        self.raw += seconds
        self._pending += seconds
        if perf_counter() - self._since >= CALIBRATE_EVERY_S:
            self._calibrate()

    def _calibrate(self) -> None:
        self.loops.append(loop_s())
        self.scaled += scaled(self._pending, (self.loops[-2] + self.loops[-1]) / 2)
        self._pending = 0.0
        self._since = perf_counter()

    def result(self) -> dict:
        """``{"wall": raw s, "scaled": s, "loop_s": mean loop s}``."""
        if self._pending or len(self.loops) == 1:
            self._calibrate()
        return {"wall": self.raw, "scaled": self.scaled,
                "loop_s": sum(self.loops) / len(self.loops)}
