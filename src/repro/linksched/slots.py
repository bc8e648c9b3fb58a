"""Immutable link time slots and gap-search primitives.

A link queue is a list of :class:`TimeSlot` sorted by start time, pairwise
non-overlapping (link non-preemption).  Slots are immutable; "moving" a slot
(OIHSA's deferral) replaces it, which is what makes the undo log of
:meth:`repro.linksched.state.LinkScheduleState.tentative` safe.

Two gap searches produce bit-identical results:

- :func:`find_gap` — the straightforward O(k) scan from slot 0, kept as the
  readable reference (and re-used by the differential test suite),
- :func:`find_gap_indexed` — bisects parallel ``starts``/``finishes`` arrays
  (maintained by :class:`repro.linksched.state.LinkScheduleState`) to the
  first *candidate* gap, then scans only the gaps that could actually host
  the slot: ``O(log k + gaps examined)``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from typing import Sequence

from repro.exceptions import SchedulingError
from repro.types import EdgeKey


class TimeSlot(namedtuple("TimeSlot", ["edge", "start", "finish"])):
    """Occupation of a link by one DAG edge over ``[start, finish)``.

    ``start`` is the paper's *virtual start time* ``t_s``: the moment from
    which the transfer uses the link's full bandwidth; ``finish`` is ``t_f``.
    ``finish - start`` always equals the edge's execution time on the link
    (``c(e) / s(L)``).

    A ``namedtuple`` rather than a dataclass: slots are created on every
    booking (and every deferral shift), and tuple construction is several
    times cheaper than frozen-dataclass ``object.__setattr__`` assignment.
    """

    __slots__ = ()

    edge: EdgeKey
    start: float
    finish: float

    def __new__(cls, edge: EdgeKey, start: float, finish: float) -> "TimeSlot":
        if not finish >= start >= 0:
            raise SchedulingError(
                f"invalid slot for edge {edge}: [{start}, {finish})"
            )
        return tuple.__new__(cls, (edge, start, finish))

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def shifted(self, dt: float) -> "TimeSlot":
        # The shifted copy is validated again by ``__new__`` (a negative
        # ``dt`` larger than ``start`` must still be rejected).
        return TimeSlot(self.edge, self.start + dt, self.finish + dt)


def find_gap(
    slots: Sequence[TimeSlot],
    duration: float,
    est: float,
    min_finish: float = 0.0,
) -> tuple[int, float, float]:
    """Earliest placement of a new slot without moving existing ones.

    Finds the first idle gap able to hold a slot of ``duration`` whose start
    is ``>= est`` and whose finish is ``>= min_finish`` (the finish on the
    previous route link — causality condition).  The slot is placed as early
    as possible: ``start = max(gap start, est, min_finish - duration)``.

    Returns ``(index, start, finish)`` where ``index`` is the insertion
    position in the queue.  Always succeeds (the tail gap is unbounded).
    """
    if duration < 0:
        raise SchedulingError(f"negative duration {duration}")
    if est < 0:
        raise SchedulingError(f"negative earliest start time {est}")
    prev_finish = 0.0
    for i, slot in enumerate(slots):
        start = max(prev_finish, est, min_finish - duration)
        finish = start + duration
        if finish <= slot.start:
            return i, start, finish
        prev_finish = slot.finish
    start = max(prev_finish, est, min_finish - duration)
    return len(slots), start, start + duration


def find_gap_indexed(
    starts: Sequence[float],
    finishes: Sequence[float],
    duration: float,
    est: float,
    min_finish: float = 0.0,
) -> tuple[int, float, float]:
    """:func:`find_gap` over parallel start/finish arrays, bisecting to the
    first candidate gap.

    Any placement starts at ``>= lo = max(est, min_finish - duration)``, so
    its finish is ``>= lo + duration`` — every gap ending before that (every
    index ``i`` with ``starts[i] < lo + duration``) is infeasible and the
    scan can begin at ``bisect_left(starts, lo + duration)``.  From there the
    arithmetic is the reference scan's, so results are bit-identical.
    """
    if duration < 0:
        raise SchedulingError(f"negative duration {duration}")
    if est < 0:
        raise SchedulingError(f"negative earliest start time {est}")
    floor = min_finish - duration
    lo = est if est >= floor else floor
    n = len(starts)
    i = bisect_left(starts, lo + duration)
    prev_finish = finishes[i - 1] if i > 0 else 0.0
    while i < n:
        start = prev_finish if prev_finish > lo else lo
        finish = start + duration
        if finish <= starts[i]:
            return i, start, finish
        prev_finish = finishes[i]
        i += 1
    start = prev_finish if prev_finish > lo else lo
    return n, start, start + duration


def insert_slot(slots: list[TimeSlot], index: int, slot: TimeSlot) -> None:
    """Insert ``slot`` at ``index``, asserting the queue stays sorted/disjoint."""
    if index > 0 and slots[index - 1].finish > slot.start:
        raise SchedulingError(
            f"slot {slot} overlaps predecessor {slots[index - 1]}"
        )
    if index < len(slots) and slot.finish > slots[index].start:
        raise SchedulingError(f"slot {slot} overlaps successor {slots[index]}")
    slots.insert(index, slot)


def check_queue_invariants(slots: Sequence[TimeSlot]) -> None:
    """Assert sortedness and pairwise disjointness (used by tests/validators)."""
    for a, b in zip(slots, slots[1:]):
        if a.start > b.start or a.finish > b.start:
            raise SchedulingError(f"queue invariant violated between {a} and {b}")
    for s in slots:
        if not math.isfinite(s.start) or not math.isfinite(s.finish):
            raise SchedulingError(f"non-finite slot {s}")
