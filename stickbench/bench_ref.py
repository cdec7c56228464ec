"""Reference CPU speed for scaled times.

The host this benchmark was defined on is shared, and its speed for
pure-Python work moves between levels up to 40 % apart, for milliseconds
to tens of seconds at a time.  Wall times of one fixed job spread by 30 %
and more between runs.  So the benchmark samples the speed while it
measures: every INTERVAL seconds of wall time a SIGALRM handler runs a
small fixed kernel and records how long it took.  A timed run's wall time,
minus the time spent in the handler, is scaled by REF_SECONDS over the
mean kernel time in a window around the run, less the slowest and fastest
tenth of the samples.  In one test over four passes of theta-fan, this cut
the range (max - min over median) of one job's time from 28 % to 11 %,
median over the jobs, and that of a whole pass from 3 % to 1 %.  A change
to stickforge does not touch the kernel, so it moves scaled times as it
moves wall times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
# kernel samples this far before and after a run count towards its speed
WINDOW = 0.2
TRIM = 0.1
# what kernel() took at the fastest speed seen on the 2-core x86-64 host the
# benchmark was defined on; it only fixes the unit of scaled seconds
REF_SECONDS = 0.00045


def kernel() -> None:
    """Fixed pure-Python work like the pipelines': Fraction arithmetic on
    small and on 60-bit terms (the exact lift's heights), and float math."""
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        acc -= Fraction((1 << 60) + i, (1 << 24) + 7 * i) * Fraction(i, (1 << 20) + 1)
    x = 0.0
    for i in range(1500):
        x += (i * 0.5) ** 0.5


class SpeedSampler:
    """While entered, times kernel() every INTERVAL seconds from a signal
    handler.  `busy` is the total time spent in the handler so far."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.busy = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        # with the collector off, the heap a job built up neither slows the
        # kernel nor gets collected on the handler's time
        gc_was_on = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        if gc_was_on:
            gc.enable()
        self.times.append(start)
        self.kernel_s.append(took)
        self.busy += time.perf_counter() - start

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the trimmed mean kernel time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        window = sorted(self.kernel_s[lo:hi])
        if not window:
            raise RuntimeError("no speed samples around a timed run")
        cut = int(len(window) * TRIM)
        return REF_SECONDS / statistics.mean(window[cut:len(window) - cut])


class Stopwatch:
    """Wall time of a with-block, less the sampler's handler time in it;
    with a tracer, the block is also a span of that tracer."""

    def __init__(self, sampler: SpeedSampler, tracer=None, name: str = "") -> None:
        self.sampler, self.tracer, self.name = sampler, tracer, name
        self.seconds = 0.0
        self.start = self.end = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.open(self.name)
        self._busy = self.sampler.busy
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.seconds = self.end - self.start - (self.sampler.busy - self._busy)
        if self.tracer is not None:
            # the root span's own length, so that self times add up to it
            self.seconds = self.tracer.close()
        return False

    @property
    def scale(self) -> float:
        return self.sampler.scale(self.start, self.end)
