"""Naive reference implementations retained for differential testing.

The scheduler hot paths replaced four substrate pieces with faster
equivalents that must be *bit-identical* in behavior:

- the linear ``find_gap`` scan      -> bisecting ``find_gap_indexed``,
- copy-on-write transactions        -> undo-log transactions,
- dict-labeled BFS/Dijkstra search  -> flat-array search with lower-bound
  pruning, dead-end skips, forced routes and inlined probes,
- the full tail -> head optimal-insertion scan -> the scan that stops at
  the first provably dead gap.

This module keeps the original (seed) algorithms alive so Hypothesis can
drive both implementations through identical call sequences and compare
results exactly.  The code is intentionally the straightforward version —
clarity over speed — and must not be "optimized": it *is* the oracle.

``naive_dijkstra_indexed`` and ``naive_dijkstra_fluid`` take the signatures
of OIHSA's and BBSA's fused searches, so a test can patch them over
``repro.core.oihsa._dijkstra_indexed`` / ``repro.core.bbsa._dijkstra_fluid``;
``naive_schedule_edge_optimal`` likewise stands in for
``repro.linksched.optimal_insertion.schedule_edge_optimal``.

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

``naive_mls_select_processor`` and ``naive_eft_select_processor`` are the
processor choices of OIHSA/BBSA and of BA before they bounded only the
processors that host a predecessor: every (processor, predecessor) pair,
and the least ``(finish, vid)`` key.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Mapping, Sequence

from repro.core.mapping import simulate_mapping
from repro.core.schedule import Schedule
from repro.exceptions import RoutingError, SchedulingError, ValidationError
from repro.linksched.bandwidth import BandwidthProfile, Cumulative, forward_through_link
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.optimal_insertion import (
    _abut,
    _cascade_fits,
    _rounding_slop,
    deferrable_time,
)
from repro.linksched.slots import TimeSlot, insert_slot
from repro.linksched.slots import find_gap as linear_find_gap
from repro.linksched.state import LinkScheduleState, _LinkQueue
from repro.network.routing import _check_endpoints
from repro.network.topology import Link, NetworkTopology, Route, Vertex
from repro.obs import OBS
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import TaskGraph
from repro.types import EPS, EdgeKey, LinkId, TaskId, VertexId

__all__ = [
    "FullResimulationEvaluator",
    "NaiveLinkScheduleState",
    "forced_pair",
    "linear_find_gap",
    "naive_bfs_route",
    "naive_dijkstra_fluid",
    "naive_dijkstra_indexed",
    "naive_dijkstra_route",
    "naive_eft_select_processor",
    "naive_mls_select_processor",
    "naive_schedule_edge_optimal",
    "naive_validate_bandwidth",
]

#: probe(link, ready_time) -> finish time of the communication on that link.
LinkProbe = Callable[[Link, float], float]


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


def _dead_end(net: NetworkTopology, v: VertexId, u: VertexId) -> bool:
    """Whether every out-link of ``v`` leads back to ``u`` (and there is one)."""
    return {w for _, w in net.out_links(v)} == {u}


def forced_pair(net: NetworkTopology, src: VertexId, dst: VertexId) -> bool:
    """Whether ``src``'s only out-link and ``dst``'s only in-link meet at
    one vertex, so the topology leaves a single path between them."""
    outs = net.out_links(src)
    ins = [
        u
        for u in (v.vid for v in net.vertices())
        for _, w in net.out_links(u)
        if w == dst
    ]
    return len(outs) == 1 and len(ins) == 1 and outs[0][1] == ins[0]


def naive_dijkstra_route(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    probe: LinkProbe,
) -> Route:
    """The seed's Dijkstra: every relaxation calls ``probe``, no cutoffs.

    The reference never prunes — no lower-bound cutoffs, no dead-end skips,
    no forced routes — which is exactly what makes it an oracle for the
    pruned search.  While observability is on it counts its relaxations,
    and apart from them the ones the pruned search never makes:
    ``routing.dead_end_relaxations``, those into a dead end (a vertex other
    than ``dst`` whose every out-link leads back to the vertex it is relaxed
    from), and ``routing.forced_relaxations``, every relaxation of a search
    between a :func:`forced_pair`, which it counts in
    ``routing.forced_routes`` instead of ``routing.dijkstra_routes``.  The
    pruned search's ``routing.relaxations`` is the total less both.
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
    dead_ends = 0
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
            if v != dst and _dead_end(net, v, u):
                dead_ends += 1
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
        metrics = OBS.metrics
        if forced_pair(net, src, dst):
            metrics.counter("routing.forced_routes").inc()
            metrics.counter("routing.forced_relaxations").inc(relaxations)
        else:
            metrics.counter("routing.dijkstra_routes").inc()
            if dead_ends:
                metrics.counter("routing.dead_end_relaxations").inc(dead_ends)
        metrics.counter("routing.relaxations").inc(relaxations)
        metrics.histogram("routing.route_length").observe(float(len(route)))
    return route


def naive_dijkstra_indexed(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    cost: float,
    queues: Mapping[LinkId, _LinkQueue | _NaiveQueue],
) -> Route:
    """OIHSA's routing as the seed ran it: :func:`naive_dijkstra_route`
    probing each link with the linear gap scan (``insertion.probes`` counts
    the probes while observability is on)."""

    def probe(link: Link, t: float) -> float:
        if OBS.on:
            OBS.metrics.counter("insertion.probes").inc()
        queue = queues.get(link.lid)
        slots = queue.slots if queue is not None else []
        return linear_find_gap(slots, cost / link.speed, t)[2]

    return naive_dijkstra_route(net, src, dst, ready_time, probe)


def naive_dijkstra_fluid(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    ready_time: float,
    cost: float,
    profiles: Mapping[LinkId, BandwidthProfile],
    tiny: bool,
) -> Route:
    """BBSA's routing as the seed ran it: :func:`naive_dijkstra_route`
    probing each link with the general fluid sweep (a step arrival forwarded
    through :func:`forward_through_link`); a ``tiny`` volume arrives when it
    is ready, as in ``BandwidthLinkState.probe_link``."""

    def probe(link: Link, t: float) -> float:
        if OBS.on:
            OBS.metrics.counter("bandwidth.probes").inc()
        if tiny:
            return t
        profile = profiles.get(link.lid) or BandwidthProfile()
        departure, _ = forward_through_link(
            profile, Cumulative.step(t, cost), link.speed
        )
        return departure.finish_time()

    return naive_dijkstra_route(net, src, dst, ready_time, probe)


# ---------------------------------------------------------------------------
# Optimal insertion: the full tail -> head scan, then the commit cascade.
# ---------------------------------------------------------------------------


def _naive_probe_optimal(
    state: LinkScheduleState | NaiveLinkScheduleState,
    link: Link,
    cost: float,
    est: float,
    min_finish: float,
    comm: CommModel,
) -> tuple[int, float, float]:
    """``(index, start, finish)`` of the head-most feasible gap on ``link``.

    Scans every queued slot from tail to head, evaluating formula (3) at
    each gap (the production scan stops at the first provably dead one).
    The rounding guard is production's: within ``_rounding_slop`` of the
    bound a gap is admitted only if its cascade's dry run fits.
    """
    duration = cost / link.speed
    lid = link.lid
    slots = state.slots(lid)
    n = len(slots)
    lo = max(est, min_finish - duration)
    tail_prev = slots[-1].finish if n else 0.0
    start = max(lo, tail_prev)
    best = (n, start, start + duration)
    slop = _rounding_slop(n, tail_prev, lo + duration)
    accum = 0.0
    for i in range(n - 1, -1, -1):
        s = slots[i]
        gap_after = slots[i + 1].start - s.finish if i + 1 < n else math.inf
        accum = min(deferrable_time(state, lid, s, comm), accum + gap_after)
        prev_finish = slots[i - 1].finish if i > 0 else 0.0
        start = max(lo, prev_finish)
        finish = start + duration
        available = s.start + accum + EPS
        if finish <= available and (
            available - finish >= slop
            or _cascade_fits(state, lid, slots, i, finish, comm)
        ):
            best = (i, start, finish)
    return best


def _naive_commit_optimal(
    state: LinkScheduleState | NaiveLinkScheduleState,
    lid: LinkId,
    edge: EdgeKey,
    placement: tuple[int, float, float],
    comm: CommModel,
) -> None:
    """Insert the new slot at ``placement`` and cascade the deferrals."""
    index, start, finish = placement
    slots = state.slots(lid)
    suffix: list[TimeSlot] = [TimeSlot(edge, start, finish)]
    prev_finish = finish
    for i in range(index, len(slots)):
        s = slots[i]
        if s.start + EPS >= prev_finish:
            _abut(suffix, s.start)
            suffix.extend(slots[i:])
            break
        delta = prev_finish - s.start
        slack = deferrable_time(state, lid, s, comm)
        if delta > slack + EPS:
            raise SchedulingError(
                f"deferral cascade pushed edge {s.edge} on link {lid} by "
                f"{delta:.12g} but its causality slack is only {slack:.12g}"
            )
        moved = s.shifted(delta)
        _abut(suffix, moved.start)
        suffix.append(moved)
        prev_finish = moved.finish
    state.replace_suffix(lid, index, suffix)


def naive_schedule_edge_optimal(
    state: LinkScheduleState | NaiveLinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Optimal insertion with the full scan: probe, then commit, per link."""
    if ready_time < 0:
        raise SchedulingError(f"negative ready time {ready_time}")
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    if not route or cost <= 0:
        state.record_route(edge, ())
        return ready_time
    state.record_route(edge, tuple(l.lid for l in route))
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    for link in route:
        placement = _naive_probe_optimal(state, link, cost, est, min_finish, comm)
        _naive_commit_optimal(state, link.lid, edge, placement, comm)
        _, start, finish = placement
        est, min_finish = comm.next_constraints(start, finish)
    return finish


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
# Processor selection: every (processor, predecessor) pair, (finish, vid) keys.
# ---------------------------------------------------------------------------


def _timeline_finish(pstate: ProcessorState, vid: VertexId) -> float:
    """``t_f(P)`` read off the processor's timeline."""
    slots = pstate.timeline(vid)
    return slots[-1].finish if slots else 0.0


def naive_mls_select_processor(
    graph: TaskGraph,
    tid: TaskId,
    procs: list[Vertex],
    pstate: ProcessorState,
    mls: float,
    *,
    local_comm_exempt: bool = True,
) -> Vertex:
    """``ContentionScheduler._mls_select_processor`` as a scan of every
    (processor, predecessor) pair, keeping the least ``(finish, vid)``."""
    weight = graph.task(tid).weight
    best: tuple[float, int] | None = None
    chosen = procs[0]
    for proc in procs:
        comm_bound = 0.0
        for e in graph.in_edges(tid):
            src_pl = pstate.placement(e.src)
            if local_comm_exempt and src_pl.processor == proc.vid:
                est = src_pl.finish
            else:
                est = src_pl.finish + e.cost / mls
            if est > comm_bound:
                comm_bound = est
        ft = _timeline_finish(pstate, proc.vid)
        if ft > comm_bound:
            comm_bound = ft
        key = (comm_bound + weight / proc.speed, proc.vid)
        if best is None or key < best:
            best, chosen = key, proc
    return chosen


def naive_eft_select_processor(
    graph: TaskGraph, tid: TaskId, procs: list[Vertex], pstate: ProcessorState
) -> Vertex:
    """BA's blind earliest-finish choice, one ``(finish, vid)`` key each."""
    weight = graph.task(tid).weight
    latest = max(
        (pstate.placement(p).finish for p in graph.predecessors(tid)), default=0.0
    )
    best: tuple[float, int] | None = None
    chosen = procs[0]
    for proc in procs:
        key = (max(latest, _timeline_finish(pstate, proc.vid)) + weight / proc.speed, proc.vid)
        if best is None or key < best:
            best, chosen = key, proc
    return chosen


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
