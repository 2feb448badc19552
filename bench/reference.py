"""Reference speed: time measured against a fixed kernel run alongside it.

The reference box's speed swings by up to about twice over tens of
seconds to minutes, in CPU time as much as in wall time.  A run therefore
times a fixed pure-Python kernel (no ``vstab`` code) every
:data:`INTERVAL_S` seconds at task boundaries, and scales each measured
CPU time by ``NOMINAL_S / local kernel time``, the kernel time being the
median of the samples taken within :data:`WINDOW_S` seconds of the
measurement.  A scaled time is the CPU time the work would take on a box
where the kernel takes exactly ``NOMINAL_S``: a change to the program
moves it, a change in the box's speed mostly does not.

The kernel has two halves of about equal time, because the box slows
cache-resident work and memory-bound work by different amounts: one
builds small dicts, frozensets, tuples and Fractions; the other reads
ints at random from a list of 300 000 (about 12 MB, counted in the run's
peak RSS).
"""

from __future__ import annotations

import random
import statistics
from array import array
from fractions import Fraction
from time import perf_counter, process_time

NOMINAL_S = 0.008  # the kernel's CPU time that scaled times refer to
INTERVAL_S = 0.5   # wall seconds between kernel samples
WINDOW_S = 2.0     # samples this close to a measurement set its scale
WALK_N = 300_000   # ints in the list the memory half reads from
WALK_STEP = 8_000  # reads per sample


def _compute():
    table = {}
    for mask in range(1, 1 << 7):
        members = frozenset(i for i in range(7) if mask >> i & 1)
        table[tuple(sorted(members))] = sum(Fraction(i + 1, 3) for i in members)
    keys = list(table)[:50]
    hits = 0
    for a in keys:
        sa = set(a)
        for b in keys:
            hits += len(sa.intersection(b)) > 1
    return hits


class Reference:
    """Kernel samples of one run, as (wall time, kernel CPU seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.data = [i * 1_000_003 for i in range(WALK_N)]  # one int object each
        self.order = array("l", range(WALK_N))
        random.Random(0).shuffle(self.order)
        self.offset = 0

    def _walk(self):
        # a different stretch of the shuffled order each time
        lo = self.offset
        self.offset = (lo + WALK_STEP) % (WALK_N - WALK_STEP)
        data, total = self.data, 0
        for i in self.order[lo:lo + WALK_STEP]:
            total += data[i]
        return total

    def sample(self) -> None:
        c0 = process_time()
        _compute()
        self._walk()
        self.samples.append((perf_counter(), process_time() - c0))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from CPU seconds measured over wall times [start, end]
        to reference seconds."""
        near = [cpu for t, cpu in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return NOMINAL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(cpu for _, cpu in self.samples)
