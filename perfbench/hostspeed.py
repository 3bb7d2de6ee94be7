"""Host speed sampled while measured calls run, to divide it out of their times.

On a shared host the speed of one core swings by up to half within seconds,
in CPU time as well as in wall time, so a raw call time says as much about the
host as about the program.  While a ``Probe`` runs, an interval timer runs a
fixed snippet of Python and numpy in the main thread every ``INTERVAL_S`` and
times it.  A call's time minus the snippets, divided by the median snippet
time seen during the call and multiplied by ``REFERENCE_S``, is its time on a
host of fixed speed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import List

import numpy as np

INTERVAL_S = 0.025
# about the snippet's time on a quiet core of the reference host (2-core VM,
# Python 3.11.7, numpy 2.4.6); normalised times are seconds on that host
REFERENCE_S = 1.2e-4

_ARRAY = np.arange(64.0)


def snippet() -> int:
    """Interpreted integer loop plus small-array numpy, as in the program's hot paths."""
    s = 0
    for i in range(2000):
        s += i * i
    a = _ARRAY
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return s


class Probe:
    def __init__(self):
        self.samples: List[float] = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """(result, raw seconds, normalised seconds) of one call."""
        first = len(self.samples)
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        during = self.samples[first:]
        busy = raw - sum(during)
        if not during:  # a call shorter than the interval: sample right after it
            self.sample()
            during = self.samples[-1:]
        return out, raw, busy / statistics.median(during) * REFERENCE_S
