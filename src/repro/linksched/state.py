"""Per-link schedule state with undo-logged tentative booking and indexed queues.

Schedulers repeatedly ask "what if I scheduled this task's communications
toward processor P?" (BA's Sinnen-faithful probe books every processor's
in-edges).  They ask it inside :meth:`LinkScheduleState.tentative`: rather
than copying every touched queue on first write (the original copy-on-write
scheme, retained as the differential-test reference in
``tests/naive_reference.py``), each write made in the block appends its
exact inverse to an **undo log**, and leaving the block — normally or by an
exception — replays the log in reverse, so its cost is O(writes made in the
block), independent of how many slots sit on the touched links.

Each :class:`_LinkQueue` also keeps parallel ``starts``/``finishes`` arrays
for the bisecting gap search in :func:`repro.linksched.slots.find_gap_indexed`.

Queues are written in *runs*.  OIHSA's commit
(:meth:`LinkScheduleState.replace_run`) replaces only the run of slots it
inserts and pushes, ``slots[start:stop]``; the slots behind the run did not
move and stay as stored, the same objects.  A run's write, and its undo
entry, cost in proportion to the run, not to the queue behind it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.exceptions import SchedulingError
from repro.linksched.slots import TimeSlot, find_gap_indexed, insert_slot
from repro.types import EdgeKey, LinkId


@dataclass
class _LinkQueue:
    """One link's bookings: a sorted slot list plus derived indexes.

    ``starts``/``finishes`` mirror ``slots`` (``starts[i] is slots[i].start``)
    so gap searches bisect plain float arrays instead of walking objects.
    """

    slots: list[TimeSlot] = field(default_factory=list)
    by_edge: dict[EdgeKey, TimeSlot] = field(default_factory=dict)
    starts: list[float] = field(default_factory=list)
    finishes: list[float] = field(default_factory=list)


#: shared empty view for links that were never booked
_EMPTY_ARRAYS: tuple[list[TimeSlot], list[float], list[float]] = ([], [], [])

# Undo-log entry tags (first tuple element).
_OP_RUN = 0    # (tag, lid, start, stop, old_run)  -> restore slots[start:stop]
_OP_ROUTE = 1  # (tag, edge, route)                -> forget the route


class LinkScheduleState:
    """All link queues plus per-edge route bookkeeping."""

    def __init__(self) -> None:
        self._queues: dict[LinkId, _LinkQueue] = {}
        self._routes: dict[EdgeKey, tuple[LinkId, ...]] = {}
        #: ``(edge, lid) -> NL(e, L)`` — built by :meth:`record_route` so the
        #: deferral slack computation is O(1) instead of ``route.index``.
        self._next_link: dict[tuple[EdgeKey, LinkId], LinkId | None] = {}
        self._undo: list[tuple] | None = None

    # -- tentative booking ---------------------------------------------------

    @contextmanager
    def tentative(self) -> Iterator[None]:
        """Book tentatively: every write made in the ``with`` block is undone
        when the block exits, by an exception too (O(writes made)).

        Reads inside the block see the tentative writes.  Blocks do not nest.
        """
        if self._undo is not None:
            raise SchedulingError("tentative link booking already open")
        undo: list[tuple] = []
        self._undo = undo
        try:
            yield
        finally:
            for entry in reversed(undo):
                self._replay_inverse(entry)
            self._undo = None

    def _replay_inverse(self, entry: tuple) -> None:
        """Undo one logged write."""
        if entry[0] == _OP_RUN:
            _, lid, start, stop, old_run = entry
            _splice(self._queues[lid], start, stop, old_run)
        else:  # _OP_ROUTE
            _, edge, route = entry
            del self._routes[edge]
            next_link = self._next_link
            for lid in route:
                next_link.pop((edge, lid), None)

    def _queue(self, lid: LinkId) -> _LinkQueue:
        queue = self._queues.get(lid)
        if queue is None:
            # A queue created inside a tentative block is simply left empty
            # when the block exits (indistinguishable from an absent one).
            queue = _LinkQueue()
            self._queues[lid] = queue
        return queue

    # -- reads ----------------------------------------------------------------

    def slots(self, lid: LinkId) -> list[TimeSlot]:
        """The link's booking queue (treat as read-only)."""
        queue = self._queues.get(lid)
        return queue.slots if queue is not None else []

    def queue_arrays(
        self, lid: LinkId
    ) -> tuple[list[TimeSlot], list[float], list[float]]:
        """``(slots, starts, finishes)`` views for index-based scans."""
        queue = self._queues.get(lid)
        if queue is None:
            return _EMPTY_ARRAYS
        return queue.slots, queue.starts, queue.finishes

    def find_gap(
        self, lid: LinkId, duration: float, est: float, min_finish: float = 0.0
    ) -> tuple[int, float, float]:
        """Earliest placement on link ``lid`` via the indexed gap search.

        Bit-identical to ``find_gap(self.slots(lid), ...)`` — the linear
        reference — but ``O(log k + gaps examined)``.
        """
        queue = self._queues.get(lid)
        if queue is None:
            if duration < 0:
                raise SchedulingError(f"negative duration {duration}")
            if est < 0:
                raise SchedulingError(f"negative earliest start time {est}")
            floor = min_finish - duration
            start = est if est >= floor else floor
            return 0, start, start + duration
        return find_gap_indexed(queue.starts, queue.finishes, duration, est, min_finish)

    def slot_of(self, edge: EdgeKey, lid: LinkId) -> TimeSlot:
        """The slot edge ``edge`` occupies on link ``lid``."""
        queue = self._queues.get(lid)
        if queue is None or edge not in queue.by_edge:
            raise SchedulingError(f"edge {edge} has no slot on link {lid}")
        return queue.by_edge[edge]

    def has_slot(self, edge: EdgeKey, lid: LinkId) -> bool:
        queue = self._queues.get(lid)
        return queue is not None and edge in queue.by_edge

    def route_of(self, edge: EdgeKey) -> tuple[LinkId, ...]:
        """The committed route of a scheduled edge."""
        try:
            return self._routes[edge]
        except KeyError:
            raise SchedulingError(f"edge {edge} has no recorded route") from None

    def has_route(self, edge: EdgeKey) -> bool:
        return edge in self._routes

    def routes(self) -> dict[EdgeKey, tuple[LinkId, ...]]:
        return dict(self._routes)

    def next_link_of(self, edge: EdgeKey, lid: LinkId) -> LinkId | None:
        """``NL(e, L)``: the link after ``lid`` on ``edge``'s route (None at tail)."""
        try:
            return self._next_link[(edge, lid)]
        except KeyError:
            self.route_of(edge)  # raises when the edge has no route at all
            raise SchedulingError(
                f"link {lid} is not on the route of edge {edge}"
            ) from None

    def used_links(self) -> list[LinkId]:
        return [lid for lid, q in self._queues.items() if q.slots]

    # -- writes ---------------------------------------------------------------

    def record_route(self, edge: EdgeKey, route: tuple[LinkId, ...]) -> None:
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already has a recorded route")
        self._routes[edge] = route
        next_link = self._next_link
        last = len(route) - 1
        for i, lid in enumerate(route):
            key = (edge, lid)
            if key not in next_link:  # first occurrence wins, as route.index did
                next_link[key] = route[i + 1] if i < last else None
        if self._undo is not None:
            self._undo.append((_OP_ROUTE, edge, route))

    def insert(self, lid: LinkId, index: int, slot: TimeSlot) -> None:
        """Insert a new slot at a known queue position."""
        queue = self._queue(lid)
        if slot.edge in queue.by_edge:
            raise SchedulingError(f"edge {slot.edge} already booked on link {lid}")
        insert_slot(queue.slots, index, slot)
        queue.starts.insert(index, slot.start)
        queue.finishes.insert(index, slot.finish)
        queue.by_edge[slot.edge] = slot
        if self._undo is not None:
            self._undo.append((_OP_RUN, lid, index, index + 1, ()))

    def replace_run(
        self, lid: LinkId, start: int, stop: int, items: list[TimeSlot]
    ) -> None:
        """Replace the run ``slots[start:stop]`` with ``items`` — OIHSA's commit.

        ``items`` is the new slot followed by shifted copies of the slots
        its deferral cascade pushed, which made up the old run; the slots
        from ``stop`` on did not move and are left as they are.  An edge in
        ``items`` that is booked on the link outside the run, or twice in
        ``items``, is an error.  ``replace_run(lid, n, n, [slot])`` on an
        ``n``-slot queue appends.
        """
        queue = self._queue(lid)
        by_edge = queue.by_edge
        if start == len(queue.slots) and len(items) == 1:
            # Plain append — by far the most common deferral-free commit.
            s = items[0]
            if s.edge in by_edge:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            by_edge[s.edge] = s
            queue.slots.append(s)
            queue.starts.append(s.start)
            queue.finishes.append(s.finish)
            if self._undo is not None:
                self._undo.append((_OP_RUN, lid, start, start + 1, ()))
            return
        old_run = queue.slots[start:stop]
        removed = {s.edge for s in old_run}
        seen: set[EdgeKey] = set()
        for s in items:
            if (s.edge in by_edge and s.edge not in removed) or s.edge in seen:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            seen.add(s.edge)
        _splice(queue, start, stop, items)
        if self._undo is not None:
            self._undo.append((_OP_RUN, lid, start, start + len(items), old_run))


def _splice(queue: _LinkQueue, start: int, stop: int, items: Sequence[TimeSlot]) -> None:
    """Put ``items`` in place of ``queue.slots[start:stop]``, unchecked."""
    by_edge = queue.by_edge
    for s in queue.slots[start:stop]:
        del by_edge[s.edge]
    for s in items:
        by_edge[s.edge] = s
    queue.slots[start:stop] = items
    queue.starts[start:stop] = [s.start for s in items]
    queue.finishes[start:stop] = [s.finish for s in items]
