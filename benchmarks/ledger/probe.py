"""Host-speed probe: how fast the CPU runs fixed work right now.

On the 2-vCPU KVM guest (Intel Xeon, 2 MiB L2 per core) the ledger was
built on, the processor's speed swings by up to 40 % within tens of
seconds: process CPU time tracks wall time through the swings, and
nothing else in the guest is busy.  Raw wall times of the same code then
spread by 10-40 % between runs.

While an untraced workload process runs, a timer signal every 20 ms runs
:func:`work` and records the CPU time it took on the interrupted thread.
An interval's *slowdown* is the median of those samples over
:data:`REFERENCE_S`; the interval's wall time divided by it is its time at
reference speed.  :func:`work` chases indices around a pseudo-random
cycle in a 1 MiB array, which the program evicts between samples, so it
is latency-bound like the simulator.  Integer-arithmetic and call-heavy
probes over-corrected: the program slowed only as their slowdown to the
power 0.75-0.8.  With this one, the quartile spread of ten runs per
workload fell from 10-26 % raw to 3-8 % (see ``baseline/``).

The array is one object the garbage collector does not track, so the
probe never triggers or lengthens the program's collections; it costs
about 1 % of the process's time and 1 MiB of memory.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import List

INTERVAL_S = 0.02
#: the CPU time :func:`work` takes at reference speed (about its median
#: on the reference host); only ratios of slowdowns are ever compared
REFERENCE_S = 2e-4

_BITS = 17
_STEPS = 1500
# a full-period linear congruential step mod 2**_BITS (a = 1 mod 4, odd
# c): one cycle through every index, in an order prefetchers cannot follow
_NEXT = array("l", ((1103515245 * i + 12345) & ((1 << _BITS) - 1)
                    for i in range(1 << _BITS)))
_AT = [0]


def work() -> int:
    """Follow ``_STEPS`` links of the cycle from where the last call
    stopped, so every call touches fresh cache lines."""
    nxt, i = _NEXT, _AT[0]
    for _ in range(_STEPS):
        i = nxt[i]
    _AT[0] = i
    return i


class SpeedProbe:
    """Samples :func:`work` on a timer signal (main thread only)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: List[float] = []
        self._last = 1.0

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        work()
        self.samples.append(time.thread_time() - t0)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reset(self) -> None:
        """Forget the samples taken so far."""
        self.samples = []

    def slowdown(self) -> float:
        """Slowdown since the last reset (1.0: reference speed), then
        reset.  An interval too short for a sample repeats the last."""
        samples, self.samples = self.samples, []
        if samples:
            self._last = statistics.median(samples) / REFERENCE_S
        return self._last
