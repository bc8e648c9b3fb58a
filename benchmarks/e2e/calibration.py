"""Machine-speed calibration of the timed metrics.

The benchmark runs on shared machines whose CPUs change speed every second
or so: other tenants load the same physical cores, each CPU flips on its own
between full and about half speed, and no steal time is reported, so the
process's CPU time slows down together with its wall time.  A reference job
timed before and after a span says little about the span itself.

:class:`SpeedSampler` therefore samples the speed *during* a span: a timer
signal interrupts the work every ``PERIOD_S`` and times :func:`sample`, one
heap-driven shortest-path search over dicts (the kind of work the
schedulers' inner loops do) on a fixed graph.  The graph and the search live
here, outside the library, so no change to the library makes them faster or
slower.  The mean of ``SAMPLE_S / duration`` over a span's samples is the
share of reference speed the span ran at; seconds times that share are
seconds *at reference speed*.  Sampling costs about 1.5% of a span, the same
on every commit.
"""

from __future__ import annotations

import heapq
import mmap
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

#: Seconds one :func:`sample` takes on the machine the benchmark was built
#: on (2-vCPU x86-64 VM, Python 3.11) at full speed.
SAMPLE_S = 0.00068
#: Seconds between two samples of a span.
PERIOD_S = 0.05

_NODES = 400
_DEGREE = 6


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(20060814)
    return [
        [(rng.randrange(_NODES), rng.uniform(1.0, 10.0)) for _ in range(_DEGREE)]
        for _ in range(_NODES)
    ]


_GRAPH = _graph()


def sample() -> float:
    """Seconds one shortest-path search over the reference graph takes now."""
    t0 = perf_counter()
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return perf_counter() - t0


@dataclass
class Speed:
    """Share of reference speed a span ran at (set when the span ends)."""

    share: float = 0.0
    #: samples taken during the span (0: too short, one was taken at its end)
    samples: int = 0


class SpeedSampler:
    """Samples speed during spans, in this process or in the processes it
    forks while a span runs (the sweep's pool workers)."""

    #: processes one span can account for: this one and forked children
    SLOTS = 16

    def __init__(self) -> None:
        # Anonymous shared memory, so forked children's samples reach us:
        # per slot, the sum of SAMPLE_S / duration and the sample count.
        self._buf = mmap.mmap(-1, 16 * self.SLOTS)
        self._acc = memoryview(self._buf).cast("d")
        self._slot = 0
        self._forks = 0
        self._children = False
        self._active = False
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self) -> None:
        if self._active and self._children:
            self._forks += 1

    def _in_child(self) -> None:
        if self._active and self._children:
            self._slot = self._forks
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _on_alarm(self, _signum, _frame) -> None:
        share = SAMPLE_S / sample()
        self._acc[2 * self._slot] += share
        self._acc[2 * self._slot + 1] += 1

    @contextmanager
    def span(self, *, children: bool = False) -> Iterator[Speed]:
        """Sample the block, in this process or (``children``) only in the
        processes it forks; a span too short for one sample takes one at
        its end."""
        speed = Speed()
        self._buf[:] = bytes(len(self._buf))
        self._slot, self._forks, self._children = 0, 0, children
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        if not children:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield speed
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._active = False
            signal.signal(signal.SIGALRM, previous)
        slots = range(1, self._forks + 1) if children else (0,)
        total = sum(self._acc[2 * i] for i in slots)
        speed.samples = int(sum(self._acc[2 * i + 1] for i in slots))
        speed.share = total / speed.samples if speed.samples else SAMPLE_S / sample()

    def close(self) -> None:
        self._acc.release()
        self._buf.close()
