"""A machine-speed reference measured inside every benchmark run.

The benchmark shares its host with other work, and the host's speed
drifts over tens of seconds: over one ten-run set of the ``sql``
workload on a 2-CPU container, throughput ranged from 118 to 189
queries/s, and p50 latency spread by 40% from run to run (quartile
distance over median), far beyond any useful regression bound.

So every run also times :func:`reference_step` — fixed work that uses
none of the program's code: a numpy sort, a dict of strings and an
interpreter loop.  It runs between operations, about every 0.25 s of the
timed phase and before and after each set-up, never inside a timed
operation.  The host's speed moves in phases of a few seconds (the
reference step went from 14 to 20 ms and back within 40 s), so each
measured time is scaled by the reference steps taken *near* it: its
*speed factor* is ``NOMINAL_MS`` over the median of the reference times
within ``NEAR_S`` of it (at least the ``MIN_NEAR`` nearest ones), and the
benchmark reports the measured time multiplied by that factor (a rate
divided by it): times read as on a host where the reference step takes
``NOMINAL_MS``.  The unscaled values are printed in the run's info line.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy

__all__ = ["INTERVAL_S", "NOMINAL_MS", "SpeedProbe", "reference_step"]

#: Reference-step time the reported values are scaled to.
NOMINAL_MS = 15.0
#: Seconds of timed phase between two reference steps.
INTERVAL_S = 0.25
#: A time is scaled by the reference steps at most this far from it ...
NEAR_S = 1.0
#: ... but by at least this many, the nearest ones.
MIN_NEAR = 3


def reference_step() -> int:
    values = numpy.random.default_rng(0).random(300_000)
    values.sort()
    names = {index: str(index) for index in range(30_000)}
    total = 0
    for index in range(100_000):
        total += index % 7
    return len(names) + total


class SpeedProbe:
    """Times reference steps and turns them into speed factors."""

    def __init__(self) -> None:
        #: Midpoint (``perf_counter``) and seconds of every reference step,
        #: in time order.
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        # The collector stays off during the step, so that the step never
        # pays for a pass over the workload's heap: with it on, the
        # step's time spread 30% more within a repair run.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_step()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)
        self._due = end + INTERVAL_S

    def tick(self) -> None:
        """Take a sample when one is due; call between operations."""
        if perf_counter() >= self._due:
            self.sample()

    @property
    def reference_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3

    @property
    def factor(self) -> float:
        """The whole run's factor: scales a time to ``NOMINAL_MS``."""
        return NOMINAL_MS / self.reference_ms

    def factor_near(self, start: float, end: float) -> float:
        """The factor for a time measured from ``start`` to ``end``."""
        low = bisect_left(self.times, start - NEAR_S)
        high = bisect_right(self.times, end + NEAR_S)
        while high - low < min(MIN_NEAR, len(self.times)):
            # Widen towards the nearer of the two neighbouring steps.
            if high == len(self.times) or (
                low > 0 and start - self.times[low - 1] <= self.times[high] - end
            ):
                low -= 1
            else:
                high += 1
        return NOMINAL_MS / (statistics.median(self.seconds[low:high]) * 1e3)
