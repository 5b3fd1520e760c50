"""Machine-speed calibration: timings in *reference seconds*.

The boxes this benchmark runs on share their cores.  On the 2-core box the
workloads were sized on, a fixed pure-Python loop read 10 to 14 ms from one
5 s window to the next (steal time under 2 %: the cores run, but slower),
and ten 24 s runs of any workload spread 13-25 % between their quartiles.
That is more than any bound worth gating on, and no statistic of raw
seconds escapes it: minima drift as much as medians.

So while a workload is measured, an interval timer interrupts the main
thread every :data:`INTERVAL_SECONDS` and times a small fixed piece of work
there, :meth:`SpeedClock.reference_work`.  A timed region is then reported
as the seconds it would have taken had that work run at
:data:`NOMINAL_SECONDS` throughout: its own seconds, minus those the
samples inside it took, times the mean over those samples of ``nominal /
sample``.  The reference work is this file's own and touches nothing of
:mod:`repro`, so no change to the stack can move it.

What was tried, over 10 min of interleaved 25 s windows each (raw spread
15-26 %): samples only before and after an op left 6-14 %; an integer loop
alone, sampled inside the ops, 3-8 % (the stack slows down ~1.2x as much as
it does, a random walk over memory ~2x as much as the stack); the three
parts below together 3-4 % on all three compile workloads.  The mean of
``1 / sample`` (speed) instead of ``1 / mean sample`` matters: it halves
the spread of a ``serve_mixed`` round (4 % from 16 % raw), because a sample
that was preempted counts for little instead of for a lot.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

#: what one sample takes on the sizing box at rest; a constant, so that
#: reference seconds read like seconds there and mean the same everywhere.
NOMINAL_SECONDS = 0.001
#: timer period: the samples take ~14 % of a measured region.
INTERVAL_SECONDS = 0.007
#: samples before and after a region that count towards its speed, so that
#: an op shorter than the period still has some.
NEIGHBOURS = 2

_TABLE_SIZE = 1 << 18
_WALK_STEPS = 3500
_INT_STEPS = 7500
_NODES = 580


class _Node:
    __slots__ = ("rank", "weight", "children")

    def __init__(self, rank: int, weight: int) -> None:
        self.rank = rank
        self.weight = weight
        self.children: list[_Node] = []


class SpeedClock:
    """Samples the reference work from a ``SIGALRM`` handler while used as
    a context manager (main thread only), and converts intervals of
    ``time.perf_counter`` into reference seconds."""

    def __init__(self) -> None:
        rng = random.Random(0)
        # floats scattered over ~8 MB of heap: more than the private caches
        self._table = [rng.random() for _ in range(_TABLE_SIZE)]
        self._walk = [rng.randrange(_TABLE_SIZE) for _ in range(_WALK_STEPS)]
        #: ``perf_counter`` at the start of each sample, and its seconds.
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous_handler = None

    def reference_work(self) -> float:
        """A third each of what the interpreter does under the stack:
        integer arithmetic in registers, reads all over memory, and
        allocating small objects into dicts and lists."""
        total = 0
        for i in range(_INT_STEPS):
            total += i * i
        table = self._table
        reads = 0.0
        for i in self._walk:
            reads += table[i]
        by_key = {}
        nodes: list[_Node] = []
        for i in range(_NODES):
            node = _Node(i, (i * i) % 7)
            by_key[(i & 255, node.weight)] = node
            nodes.append(node)
            if i & 7 == 0:
                nodes[i >> 1].children.append(node)
        return total + reads + len(by_key)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.reference_work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedClock":
        self._sample()  # so that no region is without one
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS, INTERVAL_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def speed(self, start: float, end: float) -> float:
        """How fast, as a share of nominal, the machine ran over [start,
        end]: the mean of ``nominal / sample`` over the samples taken in it
        and :data:`NEIGHBOURS` on either side."""
        low, high = self._inside(start, end)
        near = self.seconds[max(low - NEIGHBOURS, 0) : high + NEIGHBOURS]
        return statistics.fmean(NOMINAL_SECONDS / seconds for seconds in near)

    def reference_seconds(self, start: float, end: float) -> float:
        """[start, end] of this thread in reference seconds: the samples
        that interrupted it are taken out, the rest is scaled by speed."""
        low, high = self._inside(start, end)
        own = end - start - sum(self.seconds[low:high])
        return own * self.speed(start, end)

    def median_factor(self) -> float:
        """The run's median sample over nominal (above 1: a slow machine)."""
        return statistics.median(self.seconds) / NOMINAL_SECONDS
