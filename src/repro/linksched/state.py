"""Per-link schedule state with undo-log transactions and indexed queues.

Schedulers repeatedly ask "what if I scheduled this task's communications
toward processor P?" (BA probes every processor).  Rather than copying every
touched queue on first write (the original copy-on-write scheme, retained as
the differential-test reference in ``tests/naive_reference.py``), each write
appends its exact inverse to an **undo log**: rollback replays the log in
reverse, so its cost is O(writes made in the transaction) — independent of
how many slots sit on the touched links — and commit simply drops the log.

Each :class:`_LinkQueue` also keeps parallel ``starts``/``finishes`` arrays
for the bisecting gap search in :func:`repro.linksched.slots.find_gap_indexed`.

Besides the single-shot transactions, a state can run in **journal mode**
(:meth:`LinkScheduleState.enable_journal`): the undo log is kept open for the
state's whole lifetime and :meth:`journal_mark` / :meth:`rollback_to` expose
positions in it as restorable checkpoints.  This is what the incremental
mapping evaluator (:mod:`repro.core.incremental`) builds its prefix
checkpoints from: rewinding to any earlier mark costs O(writes undone),
independent of how many slots sit on the touched links.  Journal mode and
transactions are mutually exclusive — they would share the same log.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CommModel
from repro.linksched.slots import TimeSlot, find_gap_indexed, insert_slot
from repro.network.topology import Route
from repro.obs import OBS
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

    def copy(self) -> "_LinkQueue":
        return _LinkQueue(
            list(self.slots),
            dict(self.by_edge),
            list(self.starts),
            list(self.finishes),
        )


#: shared empty view for links that were never booked
_EMPTY_ARRAYS: tuple[list[TimeSlot], list[float], list[float]] = ([], [], [])

# Undo-log entry tags (first tuple element).
_OP_INSERT = 0  # (tag, lid, index)                 -> remove slots[index]
_OP_SUFFIX = 1  # (tag, lid, index, old_suffix)     -> restore slots[index:]
_OP_ROUTE = 2   # (tag, edge, route)                -> forget the route


class LinkScheduleState:
    """All link queues plus per-edge route bookkeeping."""

    def __init__(self) -> None:
        self._queues: dict[LinkId, _LinkQueue] = {}
        self._routes: dict[EdgeKey, tuple[LinkId, ...]] = {}
        #: ``(edge, lid) -> NL(e, L)`` — built by :meth:`record_route` so the
        #: deferral slack computation is O(1) instead of ``route.index``.
        self._next_link: dict[tuple[EdgeKey, LinkId], LinkId | None] = {}
        self._undo: list[tuple] | None = None
        self._journaling = False

    # -- transactions --------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._undo is not None and not self._journaling

    def begin(self) -> None:
        """Start a tentative-scheduling transaction (no nesting)."""
        if self._undo is not None:
            if self._journaling:
                raise SchedulingError("state is in journal mode; transactions unavailable")
            raise SchedulingError("link-schedule transaction already open")
        self._undo = []

    def commit(self) -> None:
        """Keep all changes made since :meth:`begin`."""
        if self._undo is None or self._journaling:
            raise SchedulingError("no open link-schedule transaction")
        self._undo = None

    def rollback(self) -> None:
        """Discard all changes made since :meth:`begin` (O(writes made))."""
        undo = self._undo
        if undo is None or self._journaling:
            raise SchedulingError("no open link-schedule transaction")
        for entry in reversed(undo):
            self._replay_inverse(entry)
        self._undo = None

    # -- journal mode ---------------------------------------------------------

    @property
    def journaling(self) -> bool:
        return self._journaling

    def enable_journal(self) -> None:
        """Record an inverse for every write for the state's whole lifetime.

        Unlike a transaction (one open undo log, dropped on commit), the
        journal never closes: :meth:`journal_mark` captures the current log
        position and :meth:`rollback_to` rewinds the state to any earlier
        mark, replaying inverses newest-first.  Once enabled, ``begin()`` /
        ``commit()`` / ``rollback()`` raise — both schemes would contend for
        the same log.
        """
        if self._undo is not None:
            raise SchedulingError(
                "cannot enable journal: transaction open or journal already enabled"
            )
        self._undo = []
        self._journaling = True

    def journal_mark(self) -> int:
        """The current journal position; pass to :meth:`rollback_to`."""
        if self._undo is None or not self._journaling:
            raise SchedulingError("journal mode is not enabled")
        return len(self._undo)

    def rollback_to(self, mark: int) -> None:
        """Rewind to an earlier :meth:`journal_mark` (O(writes undone))."""
        undo = self._undo
        if undo is None or not self._journaling:
            raise SchedulingError("journal mode is not enabled")
        if not 0 <= mark <= len(undo):
            raise SchedulingError(
                f"journal mark {mark} out of range [0, {len(undo)}]"
            )
        # Journal rewinds undo long slot streams (the incremental evaluator's
        # suffix re-simulations), so the dominant ``_OP_INSERT`` case is
        # inlined; rarer entries fall through to the shared replay.
        queues = self._queues
        while len(undo) > mark:
            entry = undo.pop()
            if entry[0] == _OP_INSERT:
                _, lid, index = entry
                queue = queues[lid]
                slot = queue.slots.pop(index)
                del queue.starts[index]
                del queue.finishes[index]
                del queue.by_edge[slot.edge]
            else:
                self._replay_inverse(entry)

    def _replay_inverse(self, entry: tuple) -> None:
        """Undo one logged write (shared by rollback and journal rewind)."""
        tag = entry[0]
        if tag == _OP_INSERT:
            _, lid, index = entry
            queue = self._queues[lid]
            slot = queue.slots.pop(index)
            del queue.starts[index]
            del queue.finishes[index]
            del queue.by_edge[slot.edge]
        elif tag == _OP_SUFFIX:
            _, lid, index, old_suffix = entry
            queue = self._queues[lid]
            for s in queue.slots[index:]:
                del queue.by_edge[s.edge]
            for s in old_suffix:
                queue.by_edge[s.edge] = s
            queue.slots[index:] = old_suffix
            queue.starts[index:] = [s.start for s in old_suffix]
            queue.finishes[index:] = [s.finish for s in old_suffix]
        else:  # _OP_ROUTE
            _, edge, route = entry
            del self._routes[edge]
            next_link = self._next_link
            for lid in route:
                next_link.pop((edge, lid), None)

    def _queue(self, lid: LinkId) -> _LinkQueue:
        queue = self._queues.get(lid)
        if queue is None:
            # A queue created inside a transaction is simply left empty on
            # rollback (indistinguishable from an absent one).
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
            self._undo.append((_OP_INSERT, lid, index))

    def replace_suffix(self, lid: LinkId, index: int, new_suffix: list[TimeSlot]) -> None:
        """Replace ``slots[index:]`` — used by OIHSA's deferral cascade.

        The new suffix may contain one new slot plus deferred (shifted) copies
        of the old ones; the ``by_edge`` index is rebuilt for affected edges.
        """
        queue = self._queue(lid)
        if index == len(queue.slots) and len(new_suffix) == 1:
            # Plain append — by far the most common deferral-free commit.
            s = new_suffix[0]
            if s.edge in queue.by_edge:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            queue.by_edge[s.edge] = s
            queue.slots.append(s)
            queue.starts.append(s.start)
            queue.finishes.append(s.finish)
            if self._undo is not None:
                self._undo.append((_OP_SUFFIX, lid, index, []))
            return
        old_suffix = queue.slots[index:]
        removed = {s.edge for s in old_suffix}
        seen: set[EdgeKey] = set()
        for s in new_suffix:
            if (s.edge in queue.by_edge and s.edge not in removed) or s.edge in seen:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            seen.add(s.edge)
        for s in old_suffix:
            del queue.by_edge[s.edge]
        for s in new_suffix:
            queue.by_edge[s.edge] = s
        queue.slots[index:] = new_suffix
        queue.starts[index:] = [s.start for s in new_suffix]
        queue.finishes[index:] = [s.finish for s in new_suffix]
        if self._undo is not None:
            self._undo.append((_OP_SUFFIX, lid, index, old_suffix))

    def book_edge_basic(
        self,
        edge: EdgeKey,
        route: Route,
        cost: float,
        ready_time: float,
        comm: CommModel,
        *,
        record: bool = True,
    ) -> float:
        """Fused :func:`repro.linksched.insertion.schedule_edge_basic`.

        Bit-identical results and counters, one call: the per-link probe /
        insert / causality-constraint steps run inline against the queue
        arrays instead of through four layers of method dispatch, which is
        what the incremental mapping evaluator's suffix loop spends its time
        on.  Checks that cannot fire are dropped, provably no-ops: the
        per-link non-negative ``est`` check (``next_constraints`` of a valid
        slot is non-negative) and the insert-position overlap assertions
        (the gap search returns non-overlapping placements by construction).

        With ``record=False`` the edge's route is *not* recorded — the
        evaluator's score-only passes never read routes and skipping them
        keeps the journal (and its rewind cost) to slot inserts; any pass
        that materializes a :class:`~repro.core.schedule.Schedule` must
        record.
        """
        if ready_time < 0:
            raise SchedulingError(f"negative ready time {ready_time}")
        if cost < 0:
            raise SchedulingError(f"negative communication cost {cost}")
        if not route or cost <= 0:
            if record:
                self.record_route(edge, ())
            return ready_time
        if record:
            self.record_route(edge, tuple(l.lid for l in route))
        queues = self._queues
        undo = self._undo
        obs_on = OBS.on
        probes_c = None
        if obs_on:
            probes_c = OBS.metrics.counter("insertion.probes")
        cut_through = comm.mode == "cut-through"
        hop = comm.hop_delay
        est = ready_time
        min_finish = 0.0
        finish = ready_time
        for link in route:
            if probes_c is not None:
                probes_c.inc()
            lid = link.lid
            queue = queues.get(lid)
            if queue is None:
                queue = _LinkQueue()
                queues[lid] = queue
            duration = cost / link.speed
            starts = queue.starts
            finishes = queue.finishes
            # Inlined ``find_gap_indexed`` (bit-identical arithmetic; its
            # negative duration/est validations are hoisted above — both are
            # non-negative by construction past the first link).
            floor = min_finish - duration
            lo = est if est >= floor else floor
            n = len(starts)
            i = bisect_left(starts, lo + duration)
            prev_finish = finishes[i - 1] if i > 0 else 0.0
            while True:
                start = prev_finish if prev_finish > lo else lo
                finish = start + duration
                if i >= n or finish <= starts[i]:
                    break
                prev_finish = finishes[i]
                i += 1
            by_edge = queue.by_edge
            if edge in by_edge:
                raise SchedulingError(f"edge {edge} already booked on link {lid}")
            # Direct tuple construction: the gap search guarantees
            # ``finish >= start >= 0`` (``start >= est >= 0``), so the
            # validating ``TimeSlot.__new__`` cannot fire here.
            slot = tuple.__new__(TimeSlot, (edge, start, finish))
            queue.slots.insert(i, slot)
            starts.insert(i, start)
            finishes.insert(i, finish)
            by_edge[edge] = slot
            if undo is not None:
                undo.append((_OP_INSERT, lid, i))
            if cut_through:
                est = start + hop
                min_finish = finish + hop
            else:
                est = finish + hop
                min_finish = 0.0
        if obs_on:
            OBS.metrics.counter("insertion.edges_scheduled").inc()
            if not OBS.bus.quieted:
                OBS.emit(
                    "edge_scheduled",
                    t=finish,
                    edge=list(edge),
                    policy="basic",
                    links=[l.lid for l in route],
                    ready=ready_time,
                    arrival=finish,
                )
        return finish
