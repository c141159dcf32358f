"""Machine speed, sampled during a run, to put wall times on one scale.

On a shared machine the same pure-Python work runs at different speeds from
one minute to the next: on a 2-CPU VM a fixed loop alternated between
about 0.11 s and 0.18 s with nothing else in the process changing.  Medians of wall time
then move with the machine, not with the program.  So while a run measures,
a timer signal (SIGALRM, every INTERVAL seconds) runs a fixed probe loop in
the benchmark's own thread and records how long it took.  A wall-time
interval is reported in reference seconds: its length, less the probes that
ran inside it, times the mean over the probes around it of
REFERENCE_NS / probe duration.  Work done at the reference speed reads the
same in both units.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter_ns

INTERVAL = 0.05
REFERENCE_NS = 500_000  # the probe at the reference speed
MIN_SAMPLES = 5


def probe():
    """A fixed mix of dict, tuple and integer work: 0.5 to 0.9 ms on the
    2-CPU VM where REFERENCE_NS was chosen."""
    table = {}
    acc = 0
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += len(table) ^ i
    return acc


class Pace:
    """Probe samples taken while the context is entered."""

    def __init__(self):
        self.starts = []     # probe start times, ns, increasing
        self.durations = []  # probe durations, ns
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter_ns()
        probe()
        self.starts.append(t0)
        self.durations.append(perf_counter_ns() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0, t1):
        """REFERENCE_NS / probe duration, averaged over the probes in
        [t0, t1], or over the MIN_SAMPLES nearest its middle when fewer ran
        inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) // 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            return 1.0
        return statistics.fmean(REFERENCE_NS / d for d in self.durations[lo:hi])

    def probe_ns(self, t0, t1):
        """Time spent in probes that started in [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def seconds(self, t0, t1, scale=None):
        """The wall interval [t0, t1] (ns) in reference seconds."""
        if scale is None:
            scale = self.scale(t0, t1)
        return (t1 - t0 - self.probe_ns(t0, t1)) * scale / 1e9
