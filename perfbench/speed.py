"""Host-speed sampling, so that times are reported at a fixed reference speed.

On the shared 2-core machine the benchmark was built on, the speed of
pure-Python code drifts by up to a factor of 1.5 over tens of seconds
(a fixed loop timed every 10 s ranged from 25 to 38 ms), and process CPU
time drifts with wall time, so no per-run estimator of raw wall time was
steady.  While ops run, ``SpeedSampler`` times a fixed pure-Python
reference loop from a SIGALRM handler every ``INTERVAL_S``; a measured
interval is then rescaled by ``REFERENCE_S`` over the mean reference time
around it, after the handler's own time inside it is removed.  The result
reads as seconds on a host where the reference loop takes ``REFERENCE_S``.
Raw wall times are printed next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.0003     # the reference loop on the 2-core host, fast phase
_WINDOW_S = 0.1


def reference() -> dict:
    """Fixed pure-Python work: dict stores of small tuples."""
    d = {}
    for i in range(2000):
        d[i & 63] = (i, i * i % 7)
    return d


class SpeedSampler:
    """Times the reference loop every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, start: float, end: float) -> float:
        """The interval [start, end] at reference speed.

        Reference samples taken inside the interval are subtracted; the
        speed is the mean over samples within ``_WINDOW_S`` of it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, start - _WINDOW_S):
                              bisect.bisect_left(self.starts, end + _WINDOW_S)]
        speed = statistics.fmean(near) if near else statistics.median(
            self.durations)
        return (end - start - own) * REFERENCE_S / speed
