"""Calibration of timings against the machine's speed at the moment.

On a shared machine the speed of the interpreter drifts, by nearly a factor
of two over tens of seconds on the machine the bounds were set on, which
would drown any change a benchmark should detect.  While a pass runs, an
interval timer interrupts the worker every `INTERVAL_S` seconds of wall time
to time a fixed piece of reference work, also in the middle of a long
operation.  Each operation's time, less the time spent on those samples, is
scaled by how much slower than nominal the reference ran during and around
it.  The reference does what the package does most: it formats labels,
fills dicts of tuples and builds frozensets.  It calls no groundsub code, so
a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager

# Median time of one `reference_work()` on the machine the bounds were set
# on (Intel Xeon, 2.1 GHz, Python 3.11), so calibrated times read in seconds
# at that speed.
NOMINAL_S = 0.0059
INTERVAL_S = 0.5
REPEATS = 3


def reference_work(n: int = 5000) -> int:
    labels = [f"C<? <: D<{i}>>" for i in range(n)]
    succ = {
        v: (labels[(i * 7 + 1) % n], labels[(i * 13 + 5) % n], labels[(i * 31 + 11) % n])
        for i, v in enumerate(labels)
    }
    closure = {v: frozenset(succ[v]) for v in sorted(labels, reverse=True)}
    return len(closure)


def reference_seconds() -> float:
    """Median time of a few back-to-back runs of the reference work.

    The cyclic collector is off meanwhile, so that a collection of whatever
    the interrupted operation holds is neither timed here nor brought on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedLog:
    """Reference timings, each with the interval of wall time it took."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = reference_seconds()
        self.samples.append((start, time.perf_counter(), seconds))

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample every INTERVAL_S seconds of wall time while inside."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def own_seconds(self, start: float, end: float) -> float:
        """Wall time from `start` to `end` less the samples taken within."""
        inside = sum(e - s for s, e, _ in self.samples if start <= s and e <= end)
        return end - start - inside

    def factor(self, start: float, end: float) -> float:
        """Nominal over observed reference time: the samples taken within
        `start` to `end`, the last one before and the first one after."""
        before = [r for _, e, r in self.samples if e <= start][-1:]
        inside = [r for s, e, r in self.samples if start <= s and e <= end]
        after = [r for s, _, r in self.samples if s >= end][:1]
        refs = before + inside + after
        return NOMINAL_S * len(refs) / sum(refs)
