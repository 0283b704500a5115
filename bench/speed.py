"""Machine speed, sampled while the benchmark runs.

The machine this benchmark was defined on shares its cores with other
tenants: a fixed pure-Python loop ran at 0.74x to 1.45x of its median time
in 5-second windows over six minutes, and the same job's time drifted by a
quarter within a quarter of an hour.  A SpeedProbe runs a short fixed loop
from a SIGALRM handler every PROBE_INTERVAL_S inside the timed process.
The speed factor of a timed region is REFERENCE_LOOP_S over the median
loop time sampled in and around it, so a measured time times its factor
is in seconds at the reference speed, at which the loop takes
REFERENCE_LOOP_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.2
REFERENCE_LOOP_S = 0.002


def probe_loop() -> float:
    """Seconds for a fixed loop of integer arithmetic and dict stores, with
    the garbage collector off so that the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, table = 0, {}
        for k in range(12_000):
            acc += k * k % 7
            table[k & 1023] = acc
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Context manager that samples the loop time on entry, every
    PROBE_INTERVAL_S while inside, and on exit.  With a tracer, each
    sample is a "bench.probe" span, so layer self times leave it out."""

    def __init__(self, tracer=None):
        self.samples: list[tuple[float, float]] = []   # (start, loop seconds)
        self._tracer = tracer
        self._previous = None

    def _sample(self, *_signal):
        start = perf_counter()
        if self._tracer is None:
            self.samples.append((start, probe_loop()))
        else:
            self.samples.append((start, self._tracer.call("bench.probe", probe_loop)))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds from t0 to t1 less the probe's own loops, speed factor)."""
        own = sum(d for t, d in self.samples if t0 <= t <= t1)
        near = [d for t, d in self.samples
                if t0 - PROBE_INTERVAL_S <= t <= t1 + PROBE_INTERVAL_S]
        if not near:  # a long native call held the signal back
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return t1 - t0 - own, REFERENCE_LOOP_S / statistics.median(near)
