"""BBSA — Bandwidth Based Scheduling Algorithm (paper Section 5).

Shares OIHSA's framework (MLS processor estimate, descending-cost edge
priority, contention-aware Dijkstra routing; :class:`repro.core.base
.MLSScheduler`) but books communications on the bandwidth-shared fluid link
model: a transfer may use the *remaining* bandwidth of partially occupied
periods and split its volume over time, so spare capacity is never wasted
and data moves as early as causality allows.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from math import inf
from typing import Any

from repro.core.base import MLSScheduler
from repro.exceptions import RoutingError
from repro.linksched.bandwidth import (
    _END,
    _FEPS,
    BandwidthLinkState,
    BandwidthProfile,
    probe_step_finish,
)
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.routing import _check_endpoints, _forced_route, _report_dijkstra
from repro.network.topology import Link, NetworkTopology, Route
from repro.obs import OBS, span
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.types import LinkId, VertexId


def _free(profile: BandwidthProfile | None, t0: float, t1: float) -> bool:
    """Whether no usage of ``profile`` overlaps ``[t0, t1)``: the first
    segment ending after ``t0``, where the fluid sweep starts, begins at
    ``t1`` or later."""
    if profile is None:
        return True
    segments = profile.segments
    si = bisect_right(segments, t0, key=_END)
    return si == len(segments) or segments[si][0] >= t1


def _dijkstra_fluid(
    net: NetworkTopology,
    src: int,
    dst: int,
    ready_time: float,
    cost: float,
    profiles: dict[LinkId, BandwidthProfile],
    tiny: bool,
) -> Route:
    """BBSA's modified routing: :func:`repro.core.oihsa._dijkstra_indexed`'s
    search (labels, tie-breaks, lower-bound prunes, forced routes, transit
    links) with the fluid step-arrival probe of
    :meth:`BandwidthLinkState.probe_link` inlined into the relax loop.

    The lower-bound prune needs its own argument.  The slot probe's bound,
    ``d + cost / speed``, holds for the fluid sweep only on a link free
    from ``d`` until then, where the sweep's first step runs at full speed
    and ends exactly there.  Elsewhere the sweep stops once it has
    forwarded ``cost - _FEPS``, so a profile boundary can end it up to
    ``_FEPS / speed`` earlier.  It never forwards faster than ``speed``, so
    in exact arithmetic it cannot finish before ``d + (cost - _FEPS) /
    speed``; the *safe* bound ``d + (cost - 2 * _FEPS) / speed`` leaves
    another ``_FEPS`` for the rounding of its running sums (a few ulps of
    ``cost`` a step over a few dozen steps, far below ``_FEPS`` at the
    volumes scheduled here), and is at most ``d``, the arrival of a
    ``tiny`` volume.  A relaxation the first bound would prune is pruned
    when the safe bound prunes it too or when its link is free over the
    window (:func:`_free`, the sweep's own first bisect); otherwise it is
    probed.

    With observability on, the call reports the same ``routing.*`` totals
    and ``route_probed`` event, with ``bandwidth.probes`` as its probe
    counter.
    """
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    if ready_time < 0:
        raise RoutingError(f"negative ready time {ready_time}")
    forced = _forced_route(net, src, dst)
    if forced is not None:
        return forced
    n = net.num_vertices
    dist_t: list[float] = [inf] * n
    dist_h: list[int] = [0] * n
    parent_v: list[int] = [-1] * n
    parent_l: list[Link | None] = [None] * n
    done = bytearray(n)
    dist_t[src] = ready_time
    heap: list[tuple[float, int, int]] = [(ready_time, 0, src)]
    out_links = net.sorted_out_links
    sole, transit, _, _ = net.route_structure()
    hub = sole[dst]
    profiles_get = profiles.get
    slack = cost - 2 * _FEPS
    best_dst = inf
    probes = 0
    cutoffs = 0
    while heap:
        d, hops, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        if u == dst:
            break
        nh = hops + 1
        if u != hub:
            choices = transit[u]
        else:
            # ``dst`` is a dead end from its sole neighbour, so the transit
            # links there leave it out: relax the full list, less dead ends.
            choices = [lv for lv in out_links(u) if sole[lv[1]] != u or lv[1] == dst]
        for link, v in choices:
            if done[v]:
                continue
            cur_t = dist_t[v]
            if cur_t != inf or best_dst != inf:
                lb = d + cost / link.speed
                if lb > cur_t or (lb == cur_t and nh >= dist_h[v]) or lb > best_dst:
                    # ``lb`` bounds the sweep only on a link free until ``lb``.
                    safe = d + slack / link.speed
                    if (
                        safe > cur_t
                        or (safe == cur_t and nh >= dist_h[v])
                        or safe > best_dst
                        or not tiny and _free(profiles_get(link.lid), d, lb)
                    ):
                        cutoffs += 1
                        continue
            probes += 1
            # Inlined ``BandwidthLinkState.probe_link`` (same arithmetic).
            if tiny:
                arrival = d
            else:
                prof = profiles_get(link.lid)
                arrival = probe_step_finish(
                    prof.segments if prof is not None else (),
                    d, cost, link.speed,
                )
            if arrival < cur_t or (arrival == cur_t and nh < dist_h[v]):
                dist_t[v] = arrival
                dist_h[v] = nh
                parent_v[v] = u
                parent_l[v] = link
                heappush(heap, (arrival, nh, v))
                if v == dst:
                    best_dst = arrival
    if parent_l[dst] is None:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    route = []
    cur = dst
    while cur != src:
        route.append(parent_l[cur])
        cur = parent_v[cur]
    route.reverse()
    _report_dijkstra(route, src, dst, dist_t[dst], probes, cutoffs, "bandwidth.probes")
    return route


class BBSAScheduler(MLSScheduler):
    """Contention-aware scheduling on bandwidth-shared (fluid) links."""

    name = "bbsa"

    def __init__(
        self,
        *,
        task_insertion: bool = False,
        modified_routing: bool = True,
        edge_priority: bool = True,
        local_comm_exempt: bool = True,
        comm: CommModel = CUT_THROUGH,
    ) -> None:
        self.task_insertion = task_insertion
        self.modified_routing = modified_routing
        self.edge_priority = edge_priority
        self.local_comm_exempt = local_comm_exempt
        self.comm = comm
        self._bstate = BandwidthLinkState()

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        super()._begin(graph, net)
        self._bstate = BandwidthLinkState()

    def _search(
        self, net: NetworkTopology, src: int, dst: int, cost: float, ready: float
    ) -> Route:
        return _dijkstra_fluid(
            net, src, dst, ready, cost, self._bstate._profiles, cost <= _FEPS
        )

    def _book_local(self, e: CommEdge, ready: float) -> float:
        self._bstate.schedule_edge(e.key, [], e.cost, ready, self.comm)
        return ready

    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        route = self._route(net, src, dst, e.cost, ready)
        with span("insertion"):
            arrival = self._bstate.schedule_edge(e.key, route, e.cost, ready, self.comm)
        if OBS.on:
            OBS.metrics.counter("insertion.edges_scheduled").inc()
            OBS.emit(
                "edge_scheduled",
                t=arrival,
                edge=list(e.key),
                policy="bandwidth",
                links=[l.lid for l in route],
                ready=ready,
                arrival=arrival,
            )
        return arrival

    def _link_engine(self) -> dict[str, Any]:
        return {"bandwidth_state": self._bstate, "comm": self.comm}
