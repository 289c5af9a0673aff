"""A clock that discounts the host's changing speed.

On a shared host the same pure-Python loop can take twice as long from one
second to the next, in stretches that last seconds.  Raw wall times of a
20-second pass then spread by 10-20 % between runs, which hides any change
smaller than that.  `SpeedClock` probes the speed of the core the process
runs on every INTERVAL seconds, from a SIGALRM handler that times one of
three fixed kernels in turn (integer and dict arithmetic; tuples,
frozensets and strings; big-integer products, the mix combspec does).  A
probe's slowness is its time over that kernel's REFERENCE time, and each
stretch of wall time between two probes is divided by the median slowness
of the probes around it, which gives seconds at reference speed.  The
probes' own time is left out.  On the host this was written on, that cut
the spread between runs of the same work from 11-17 % to 3-4 %
(interquartile range over median); single kernels did about half as well.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.02
# probes on each side of a gap whose median slowness sets its speed
SMOOTH = 2
_BIG = 3**400


def _arith() -> None:
    x = 0
    d: dict[int, int] = {}
    for i in range(3000):
        x = (x * 31 + i) % 1000003
        d[x & 255] = i


def _containers() -> None:
    seen: set[frozenset] = set()
    out = []
    for i in range(250):
        t = (i & 7, i >> 3, "ab"[i & 1])
        seen.add(frozenset((t, (i & 3,))))
        out.append("|".join(sorted((t[2], str(t[0])))))


def _bigint() -> None:
    a = _BIG
    for i in range(600):
        a = (a * (i + 12345)) % (_BIG + 7)


# (kernel, median seconds per call on a 2-vCPU Intel Xeon VM at 2.1 GHz
# under Python 3.11): the reference speed
KERNELS = ((_arith, 0.00050), (_containers, 0.00050), (_bigint, 0.00026))


class SpeedClock:
    """Probes the host's speed between `start()` and `stop()`.

    `seconds(t0, t1)` converts the interval between two `now()` readings
    (which are `time.perf_counter()`) taken while the clock ran.
    """

    now = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._slowness: list[float] = []
        self._old = None

    def _probe(self, signum, frame) -> None:
        kernel, reference = KERNELS[len(self._starts) % len(KERNELS)]
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t1)
        self._slowness.append((t1 - t0) / reference)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def _speed(self, i: int) -> float:
        lo, hi = max(0, i - SMOOTH), min(len(self._starts), i + SMOOTH + 1)
        return statistics.median(self._slowness[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1, less probes, at reference speed."""
        if not self._starts:
            return t1 - t0
        first = bisect.bisect_left(self._ends, t0)
        total, edge = 0.0, t0
        for i in range(first, len(self._starts)):
            if self._starts[i] >= t1:
                break
            total += (self._starts[i] - edge) / self._speed(i)
            edge = self._ends[i]
        # the tail after the last probe takes the speed of the latest probe
        last = max(0, bisect.bisect_left(self._starts, t1) - 1)
        return total + max(0.0, t1 - edge) / self._speed(last)
