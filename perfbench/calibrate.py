"""The machine's speed, read by a frozen kernel while the items run.

On the 2-vCPU virtual machine the benchmark was built on, one and the same
item ran up to 1.8 times slower in some phases than in others, and the
phases change within seconds (other tenants on shared cores): far more
noise than the bounds the benchmark must hold.  Readings taken between items
miss the phases inside long items, so a ``Sampler`` times a small kernel
every ``INTERVAL_S`` of wall time from a SIGALRM handler, inside the items.
Each item's time is then net of the handler's time and scaled by
``REFERENCE_S / mean kernel time`` during the item: the reported item times
are those of a machine on which the kernel takes ``REFERENCE_S``.

The kernel is plain Python on fixed data (an elimination over the rationals
and a determinant mod p, the two kinds of arithmetic the program does) and
never imports galecubics, so a change to the program moves the items and
not the yardstick.  Changing the kernel or ``REFERENCE_S`` rescales every
item time the benchmark reports.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.001
MIN_SAMPLES = 4          # readings per item; short items borrow the nearest

_rng = random.Random(20251017)
_RATIONAL_ROWS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(8)]
                  for _ in range(5)]
_MOD_P_ROWS = [[_rng.randrange(101) for _ in range(10)] for _ in range(10)]


def _fraction_rref(rows):
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m


def _det_mod_p(rows, p):
    m = [row[:] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det % p
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = inv * m[i][c] % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det


def kernel() -> None:
    _fraction_rref(_RATIONAL_ROWS)
    _det_mod_p(_MOD_P_ROWS, 101)


class Sampler:
    """Context manager: times ``kernel`` every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.at: list = []       # perf_counter at the end of each reading
        self.took: list = []     # seconds each reading took
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:           # a signal that lands inside a reading
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.at.append(end)
            self.took.append(end - start)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float):
        """(seconds spent reading, mean reading) for the wall interval
        [start, end]; the mean is over at least ``MIN_SAMPLES`` readings,
        the nearest ones when the interval holds fewer."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        spent = sum(self.took[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at)
                           or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        readings = self.took[lo:hi]
        return spent, (sum(readings) / len(readings) if readings else None)
