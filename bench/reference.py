"""The machine's speed at a moment, read from a fixed stdlib loop.

On a virtual machine whose host is shared, the CPU time of one piece of
code changes by up to a factor of two from one second to the next.  The
benchmark therefore times `loop` next to the work it measures and scales
that work's CPU time to the speed at which `loop` takes `REFERENCE_MS`.
The loop uses only the standard library, so no change to torusbv moves it.
This module imports nothing else, so that the worker can start sampling
before it imports torusbv.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

REFERENCE_MS = 0.25  # the loop's CPU time on a calm 2-vCPU Xeon VM, CPython 3.11


def loop():
    """Fixed stdlib work of the library's kind: exact fractions summed in a
    dict keyed by tuples."""
    terms = {}
    total = Fraction(0)
    for k in range(60):
        key = ((k % 7, -k % 5), (k % 3,))
        terms[key] = terms.get(key, 0) + Fraction(k % 9 + 1, k % 4 + 1)
        total += terms[key]
    return total


def time_loop() -> float:
    """CPU seconds of one run of `loop` on this thread, with the cyclic
    garbage collector off: a collection it set off would scan the caller's
    objects, whose number changes (fast during set-up)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        loop()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times `loop` every `interval_s` of this process's CPU time, from a
    SIGPROF timer, between `start` and `stop`.  The CPU time the samples
    take is kept in `spent`, to be subtracted from the work measured."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples = array("d")
        self.spent = 0.0

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if not self.samples:
            self._sample(None, None)

    def _sample(self, signum, frame):
        t0 = time.process_time()
        loop()  # the set-up work in between evicted it from the caches
        self.samples.append(time_loop())
        self.spent += time.process_time() - t0

    def scale(self) -> float:
        """`REFERENCE_MS` over the median sample: the factor that turns CPU
        seconds taken while sampling into reference seconds."""
        return REFERENCE_MS * 1e-3 / statistics.median(self.samples)
