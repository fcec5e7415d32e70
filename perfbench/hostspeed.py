"""Host-speed probe: a fixed computation timed at intervals during a run.

On a shared host the same single-threaded code runs up to 1.5x slower for
seconds to minutes at a time, often longer than one run.  So the end-to-end
times are reported in `ref`: multiples of the time this fixed computation
takes at that moment of the same run.  The probe times it every INTERVAL
seconds between verdicts; each timed interval is divided by the median probe
time within WINDOW seconds of it, so that a slow period slows numerator and
denominator alike.  Host speed holds for several seconds at a time, so a
window of a few seconds follows it while averaging over many probes.  The
computation uses no bracketforge code; like the package it is pure-Python
rational and dictionary arithmetic.  The probes' own time is left out of
every timed interval.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import oracle as O

INTERVAL = 0.25
WINDOW = 2.5

_rng = random.Random(0)
_MATRICES = [[[_rng.randint(-30, 30) for _ in range(6)] for _ in range(6)] for _ in range(3)]
_POLY = {((i, j),): _rng.randint(-9, 9) or 1 for i in range(14) for j in range(5)}


def _product(p, q) -> dict:
    out: dict = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(sorted(ka + kb))
            out[k] = out.get(k, 0) + ca * cb
    return out


def reference() -> int:
    """The fixed computation; returns a checksum so that it cannot go stale."""
    total = sum(O.det(m) for m in _MATRICES)
    return int(total) + sum(_product(_POLY, _POLY).values())


CHECKSUM = reference()


class Probe:
    """Times `reference()` whenever INTERVAL seconds have passed since the
    last probe.  Between `begin()` and `end()` it also keeps the timed
    intervals, cut at each probe so that probe time is left out."""

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []
        self.segments: list[tuple[float, float]] = []
        self._next = 0.0
        self._mark = None

    def begin(self):
        self._mark = time.perf_counter()

    def end(self):
        self.segments.append((self._mark, time.perf_counter() - self._mark))
        self._mark = None

    def tick(self):
        t0 = time.perf_counter()
        if t0 < self._next:
            return
        if self._mark is not None:
            self.segments.append((self._mark, t0 - self._mark))
        runs = []
        for _ in range(2):  # the faster of two, as an interrupt hits one at most
            start = time.perf_counter()
            if reference() != CHECKSUM:
                raise RuntimeError("host-speed reference computation changed its result")
            runs.append(time.perf_counter() - start)
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.times.append(min(runs))
        self._next = t1 + INTERVAL
        if self._mark is not None:
            self._mark = t1

    def local(self, t: float) -> float:
        """Median probe time within WINDOW seconds of `t` (at least the three
        probes nearest to it), in seconds."""
        lo = bisect.bisect_left(self.at, t - WINDOW)
        hi = bisect.bisect_right(self.at, t + WINDOW)
        while hi - lo < 3 and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or t - self.at[lo - 1] < self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.times[lo:hi])

    def in_ref(self, start: float, seconds: float) -> float:
        """An interval of `seconds` that began at `start`, in ref."""
        return seconds / self.local(start + seconds / 2)

    def timed_ref(self) -> float:
        """Total of the timed intervals, in ref."""
        return sum(self.in_ref(s, d) for s, d in self.segments)
