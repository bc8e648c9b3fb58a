"""Naive reference implementations retained for differential testing.

PR "scheduler hot-path overhaul" replaced three substrate pieces with faster
equivalents that must be *bit-identical* in behavior:

- the linear ``find_gap`` scan      -> bisecting ``find_gap_indexed``,
- copy-on-write transactions        -> undo-log transactions,
- dict-labeled BFS/Dijkstra search  -> flat-array search with lower-bound
  pruning and inlined probes.

This module keeps the original (seed) algorithms alive so Hypothesis can
drive both implementations through identical call sequences and compare
results exactly.  The code is intentionally the straightforward version —
clarity over speed — and must not be "optimized": it *is* the oracle.

``NaiveLinkScheduleState`` mirrors :class:`repro.linksched.state
.LinkScheduleState`'s full surface (including the ``_queues`` internals the
hot paths read), so it can be monkeypatched into any scheduler as a drop-in
replacement.  Its queues still expose ``starts``/``finishes``, but
maintained naively: the arrays are rebuilt from scratch on every write.

``FullResimulationEvaluator`` does the same for the mapping searches'
scorer, :class:`repro.core.batch.BatchMappingEvaluator`: every score is one
complete :func:`repro.core.mapping.simulate_mapping` run.

``naive_validate_bandwidth`` is the BBSA schedule check before it walked
its curves with pointers: one :meth:`Cumulative.value` bisect per departure
breakpoint, and the hop-to-hop pass never skipped.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Mapping, Sequence

from repro.core.mapping import simulate_mapping
from repro.core.schedule import Schedule
from repro.exceptions import RoutingError, SchedulingError, ValidationError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.slots import TimeSlot, insert_slot
from repro.linksched.slots import find_gap as linear_find_gap
from repro.network.routing import LinkProbe, _check_endpoints
from repro.network.topology import Link, NetworkTopology, Route
from repro.obs import OBS
from repro.taskgraph.graph import TaskGraph
from repro.types import EdgeKey, LinkId, TaskId, VertexId

__all__ = [
    "FullResimulationEvaluator",
    "NaiveLinkScheduleState",
    "linear_find_gap",
    "naive_bfs_route",
    "naive_dijkstra_route",
    "naive_validate_bandwidth",
]


# ---------------------------------------------------------------------------
# Routing: the seed's dict-labeled searches (no pruning, no inlined probes).
# ---------------------------------------------------------------------------


def naive_bfs_route(net: NetworkTopology, src: VertexId, dst: VertexId) -> Route:
    """The seed's BFS: dict parents, per-pop ``sorted(net.out_links(u))``."""
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    parent: dict[VertexId, tuple[VertexId, Link]] = {}
    seen = {src}
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for link, v in sorted(net.out_links(u), key=lambda lv: lv[0].lid):
            if v in seen:
                continue
            seen.add(v)
            parent[v] = (u, link)
            if v == dst:
                frontier.clear()
                break
            frontier.append(v)
    if dst not in parent:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    route: Route = []
    cur = dst
    while cur != src:
        prev, link = parent[cur]
        route.append(link)
        cur = prev
    route.reverse()
    if OBS.on:
        OBS.metrics.counter("routing.bfs_routes").inc()
        OBS.metrics.histogram("routing.route_length").observe(float(len(route)))
    return route


def naive_dijkstra_route(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    probe: LinkProbe,
    lower_bound: LinkProbe | None = None,
) -> Route:
    """The seed's Dijkstra: every relaxation calls ``probe``, no cutoffs.

    The reference never prunes — no lower-bound cutoffs, no dead-end skips —
    which is exactly what makes it an oracle for the pruned search.
    ``lower_bound``'s value is never used; while observability is on it is
    still called once per relaxation, as ``dijkstra_route`` promises its
    callers, because schedulers hang their probe counters on it.
    """
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    if ready_time < 0:
        raise RoutingError(f"negative ready time {ready_time}")
    dist: dict[VertexId, tuple[float, int]] = {src: (ready_time, 0)}
    parent: dict[VertexId, tuple[VertexId, Link]] = {}
    done: set[VertexId] = set()
    heap: list[tuple[float, int, VertexId]] = [(ready_time, 0, src)]
    relaxations = 0
    while heap:
        d, hops, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for link, v in sorted(net.out_links(u), key=lambda lv: lv[0].lid):
            if v in done:
                continue
            relaxations += 1
            if lower_bound is not None and OBS.on:
                lower_bound(link, d)
            arrival = probe(link, d)
            if arrival < d:
                raise RoutingError(
                    f"probe on link {link.lid} returned arrival {arrival} earlier "
                    f"than availability {d}"
                )
            label = (arrival, hops + 1)
            if label < dist.get(v, (float("inf"), 0)):
                dist[v] = label
                parent[v] = (u, link)
                heappush(heap, (arrival, hops + 1, v))
    if dst not in parent:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    route: Route = []
    cur = dst
    while cur != src:
        prev, link = parent[cur]
        route.append(link)
        cur = prev
    route.reverse()
    if OBS.on:
        OBS.metrics.counter("routing.dijkstra_routes").inc()
        OBS.metrics.counter("routing.relaxations").inc(relaxations)
        OBS.metrics.histogram("routing.route_length").observe(float(len(route)))
    return route


# ---------------------------------------------------------------------------
# Link-schedule state: the seed's copy-on-write transaction scheme.
# ---------------------------------------------------------------------------


class _NaiveQueue:
    """One link's bookings with the derived arrays rebuilt on every write."""

    __slots__ = ("slots", "by_edge", "starts", "finishes")

    def __init__(
        self,
        slots: list[TimeSlot] | None = None,
        by_edge: dict[EdgeKey, TimeSlot] | None = None,
    ) -> None:
        self.slots = slots if slots is not None else []
        self.by_edge = by_edge if by_edge is not None else {}
        self.starts: list[float] = [s.start for s in self.slots]
        self.finishes: list[float] = [s.finish for s in self.slots]

    def rebuild(self) -> None:
        self.starts = [s.start for s in self.slots]
        self.finishes = [s.finish for s in self.slots]

    def copy(self) -> "_NaiveQueue":
        return _NaiveQueue(list(self.slots), dict(self.by_edge))


_EMPTY_ARRAYS: tuple[list[TimeSlot], list[float], list[float]] = ([], [], [])


class NaiveLinkScheduleState:
    """Seed-style state: first write inside a transaction copies the queue.

    Rollback restores the stashed originals — O(links touched) with a full
    queue copy per touched link, which is what the undo log replaced.
    """

    def __init__(self) -> None:
        self._queues: dict[LinkId, _NaiveQueue] = {}
        self._routes: dict[EdgeKey, tuple[LinkId, ...]] = {}
        #: present so hot paths that read ``state._next_link`` fall through
        #: their ``except KeyError`` branch into ``next_link_of`` (which the
        #: naive state answers with the seed's ``route.index`` scan).
        self._next_link: dict[tuple[EdgeKey, LinkId], LinkId | None] = {}
        self._txn_queues: dict[LinkId, _NaiveQueue] | None = None
        self._txn_routes: list[EdgeKey] | None = None

    # -- transactions --------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn_queues is not None

    def begin(self) -> None:
        if self._txn_queues is not None:
            raise SchedulingError("link-schedule transaction already open")
        self._txn_queues = {}
        self._txn_routes = []

    def commit(self) -> None:
        if self._txn_queues is None:
            raise SchedulingError("no open link-schedule transaction")
        self._txn_queues = None
        self._txn_routes = None

    def rollback(self) -> None:
        if self._txn_queues is None or self._txn_routes is None:
            raise SchedulingError("no open link-schedule transaction")
        for lid, original in self._txn_queues.items():
            self._queues[lid] = original
        for edge in self._txn_routes:
            del self._routes[edge]
        self._txn_queues = None
        self._txn_routes = None

    def _writable(self, lid: LinkId) -> _NaiveQueue:
        queue = self._queues.get(lid)
        if queue is None:
            queue = _NaiveQueue()
            self._queues[lid] = queue
            if self._txn_queues is not None and lid not in self._txn_queues:
                # Remember the link was empty before the transaction.
                self._txn_queues[lid] = _NaiveQueue()
            return queue
        if self._txn_queues is not None and lid not in self._txn_queues:
            self._txn_queues[lid] = queue
            queue = queue.copy()
            self._queues[lid] = queue
        return queue

    # -- reads ----------------------------------------------------------------

    def slots(self, lid: LinkId) -> list[TimeSlot]:
        queue = self._queues.get(lid)
        return queue.slots if queue is not None else []

    def queue_arrays(
        self, lid: LinkId
    ) -> tuple[list[TimeSlot], list[float], list[float]]:
        queue = self._queues.get(lid)
        if queue is None:
            return _EMPTY_ARRAYS
        return queue.slots, queue.starts, queue.finishes

    def find_gap(
        self, lid: LinkId, duration: float, est: float, min_finish: float = 0.0
    ) -> tuple[int, float, float]:
        """The linear reference scan — the oracle for ``find_gap_indexed``."""
        return linear_find_gap(self.slots(lid), duration, est, min_finish)

    def slot_of(self, edge: EdgeKey, lid: LinkId) -> TimeSlot:
        queue = self._queues.get(lid)
        if queue is None or edge not in queue.by_edge:
            raise SchedulingError(f"edge {edge} has no slot on link {lid}")
        return queue.by_edge[edge]

    def has_slot(self, edge: EdgeKey, lid: LinkId) -> bool:
        queue = self._queues.get(lid)
        return queue is not None and edge in queue.by_edge

    def route_of(self, edge: EdgeKey) -> tuple[LinkId, ...]:
        try:
            return self._routes[edge]
        except KeyError:
            raise SchedulingError(f"edge {edge} has no recorded route") from None

    def has_route(self, edge: EdgeKey) -> bool:
        return edge in self._routes

    def routes(self) -> dict[EdgeKey, tuple[LinkId, ...]]:
        return dict(self._routes)

    def next_link_of(self, edge: EdgeKey, lid: LinkId) -> LinkId | None:
        """The seed's O(route length) ``route.index`` scan."""
        route = self.route_of(edge)
        try:
            i = route.index(lid)
        except ValueError:
            raise SchedulingError(
                f"link {lid} is not on the route of edge {edge}"
            ) from None
        return route[i + 1] if i + 1 < len(route) else None

    def used_links(self) -> list[LinkId]:
        return [lid for lid, q in self._queues.items() if q.slots]

    # -- writes ---------------------------------------------------------------

    def record_route(self, edge: EdgeKey, route: tuple[LinkId, ...]) -> None:
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already has a recorded route")
        self._routes[edge] = route
        if self._txn_routes is not None:
            self._txn_routes.append(edge)

    def insert(self, lid: LinkId, index: int, slot: TimeSlot) -> None:
        queue = self._writable(lid)
        if slot.edge in queue.by_edge:
            raise SchedulingError(f"edge {slot.edge} already booked on link {lid}")
        insert_slot(queue.slots, index, slot)
        queue.by_edge[slot.edge] = slot
        queue.rebuild()

    def replace_suffix(
        self, lid: LinkId, index: int, new_suffix: list[TimeSlot]
    ) -> None:
        queue = self._writable(lid)
        old_suffix = queue.slots[index:]
        for s in old_suffix:
            del queue.by_edge[s.edge]
        for s in new_suffix:
            if s.edge in queue.by_edge:
                raise SchedulingError(f"edge {s.edge} booked twice on link {lid}")
            queue.by_edge[s.edge] = s
        queue.slots[index:] = new_suffix
        queue.rebuild()


# ---------------------------------------------------------------------------
# Mapping scoring: one full simulation per candidate.
# ---------------------------------------------------------------------------


class FullResimulationEvaluator:
    """``BatchMappingEvaluator``'s surface, one ``simulate_mapping`` per call."""

    def __init__(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        *,
        order: Sequence[TaskId] | None = None,
        comm: CommModel = CUT_THROUGH,
        algorithm: str = "mapping",
        kernel: str = "auto",  # accepted for signature parity; unused
    ) -> None:
        self._args = (graph, net)
        self._kwargs = {"order": order, "comm": comm, "algorithm": algorithm}

    def schedule(self, mapping: Mapping[TaskId, VertexId]) -> Schedule:
        return simulate_mapping(*self._args, mapping, **self._kwargs)

    def evaluate(self, mapping: Mapping[TaskId, VertexId]) -> float:
        return self.schedule(mapping).makespan

    def evaluate_batch(
        self, mappings: Sequence[Mapping[TaskId, VertexId]]
    ) -> list[float]:
        return [self.evaluate(m) for m in mappings]


# ---------------------------------------------------------------------------
# BBSA schedule validation: one bisect per departure breakpoint.
# ---------------------------------------------------------------------------


def naive_validate_bandwidth(schedule: Schedule, eps: float) -> None:
    """``repro.core.validate._validate_bandwidth`` as a bisect per point."""
    state = schedule.bandwidth_state
    assert state is not None
    graph = schedule.graph

    checked: set[int] = set()
    for e in graph.edges():
        for booking in state.bookings_of(e.key):
            if booking.lid in checked:
                continue
            checked.add(booking.lid)
            prof = state.profile(booking.lid)
            if prof.max_used() > 1.0 + 1e-6:
                raise ValidationError(
                    f"link {booking.lid} over-committed: used {prof.max_used()}"
                )

    for e in graph.edges():
        if not state.has_route(e.key):
            continue
        route = state.route_of(e.key)
        if not route:
            continue
        bookings = state.bookings_of(e.key)
        if tuple(b.lid for b in bookings) != route:
            raise ValidationError(
                f"edge {e.key}: bookings {[b.lid for b in bookings]} do not match "
                f"route {route}"
            )
        src_finish = schedule.placements[e.src].finish
        prev_dep = None
        for booking in bookings:
            if abs(booking.departure.final_volume - e.cost) > max(eps, 1e-6 * e.cost):
                raise ValidationError(
                    f"edge {e.key} on link {booking.lid}: forwarded "
                    f"{booking.departure.final_volume} of {e.cost}"
                )
            for t, v in booking.departure.points:
                if v > booking.arrival.value(t) + max(eps, 1e-6 * e.cost):
                    raise ValidationError(
                        f"edge {e.key} on link {booking.lid}: forwarded {v} by "
                        f"t={t} but only {booking.arrival.value(t)} had arrived"
                    )
            if prev_dep is not None:
                tol = max(eps, 1e-6 * e.cost)
                if schedule.comm.mode == "cut-through":
                    for t, v in booking.departure.points:
                        if v > prev_dep.value(t - schedule.comm.hop_delay) + tol:
                            raise ValidationError(
                                f"edge {e.key} on link {booking.lid}: forwarded "
                                f"{v} by t={t}, outrunning the previous hop"
                            )
                else:
                    lower = prev_dep.finish_time() + schedule.comm.hop_delay
                    if booking.departure.start_time < lower - eps:
                        raise ValidationError(
                            f"edge {e.key} on link {booking.lid}: store-and-forward "
                            f"hop starts at {booking.departure.start_time}, before "
                            f"the previous hop completes at {lower}"
                        )
            prev_dep = booking.departure
            if booking.departure.start_time < src_finish - eps:
                raise ValidationError(
                    f"edge {e.key} on link {booking.lid}: transfer begins at "
                    f"{booking.departure.start_time}, before the source finishes "
                    f"at {src_finish}"
                )
        arrival = schedule.edge_arrivals[e.key]
        if abs(bookings[-1].departure.finish_time() - arrival) > eps:
            raise ValidationError(
                f"edge {e.key}: recorded arrival {arrival} != final hop finish "
                f"{bookings[-1].departure.finish_time()}"
            )
