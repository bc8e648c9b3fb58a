"""OIHSA — Optimal Insertion Hybrid Scheduling Algorithm (paper Section 4).

Four policy points, per the paper:

1. **Processor choice** (4.1): a static earliest-finish estimate using the
   mean link speed ``MLS`` instead of probing —
   ``min_P [ max( max_j(t_f(pred_j) + c(e_j,i)/MLS), t_f(P) ) + w(n_i)/s(P) ]``
   with the communication term dropped for predecessors already on ``P``.
2. **Edge priority** (4.2): in-edges booked in descending cost order, so big
   transfers grab routes and slots first.
3. **Modified routing** (4.3): Dijkstra whose relaxation cost is the finish
   time the edge would get on each link under *current* schedules (probed by
   basic insertion) — load-adaptive instead of hop-count BFS.
4. **Optimal insertion** (4.4): slots of already-booked edges may be deferred
   within their causality slack to open earlier gaps (Lemma 2 / Theorem 1).

BBSA shares the first three (:class:`repro.core.base.MLSScheduler`); the
route search and the booking are OIHSA's own.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from math import inf
from typing import Any

from repro.core.base import MLSScheduler
from repro.exceptions import RoutingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.state import LinkScheduleState, _LinkQueue  # repro-lint: disable=TXN001 (type-only use below)
from repro.network.routing import _check_endpoints, _forced_route, _report_dijkstra
from repro.network.topology import Link, NetworkTopology, Route
from repro.obs import span
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.types import LinkId, VertexId


def _dijkstra_indexed(
    net: NetworkTopology,
    src: int,
    dst: int,
    ready_time: float,
    cost: float,
    queues: dict[LinkId, _LinkQueue],  # repro-lint: disable=TXN001 (type annotation only)
) -> Route:
    """OIHSA's modified routing (paper Section 4.3): the route that
    minimizes the communication's arrival time under the current link
    schedules.

    A label-setting Dijkstra on arrival times.  Relaxing a link probes the
    finish time a ``cost``-sized transfer available at the label's time
    would get in the link's queue (``find_gap_indexed``'s arithmetic,
    inlined); that finish is monotone in the availability time, which is
    what makes the labels final when they pop.

    - Equal arrival times break toward **fewer hops**, then the lower
      vertex id: with cut-through communication an idle detour often
      finishes exactly when the direct route does, and preferring the short
      route avoids squandering link capacity later edges will need (the
      paper's "route paths with relatively low network workload").
    - **Lower-bound prunes.**  The contention-free finish ``t + cost /
      speed`` bounds the probe from below.  A relaxation whose bound cannot
      improve its target's label is skipped, and so is one whose bound is
      *strictly* above the destination's label: its target would pop only
      after ``dst``, where the search stops.  Neither changes the popped
      vertices or the route (ties are never pruned against the destination:
      an equal-arrival label with fewer hops can still pop first).
    - **Dead ends** are never relaxed.  A vertex ``v != dst`` whose every
      out-link leads back to the vertex ``u`` it is reached from
      (:meth:`~repro.network.topology.NetworkTopology.sole_out_neighbours`)
      — on the paper's random WAN, every processor but the endpoints —
      cannot lie on any route: its label would only be read by a relaxation
      back into the settled ``u``.  A settled vertex walks only its
      *transit* links, which leave dead ends out
      (:meth:`~repro.network.topology.NetworkTopology.route_structure`);
      ``dst``'s sole neighbour, from which ``dst`` is a dead end, walks its
      full list instead.
    - **Forced routes** are not searched: between two processors whose
      single cables meet at one vertex the search could return only that
      two-hop route (:func:`~repro.network.routing._forced_route`).

    With observability on, a searched call adds ``routing.relaxations``
    (links relaxed, dead ends excluded), ``routing.probe_cutoffs``
    (relaxations a bound pruned) and ``insertion.probes`` (queue probes
    made: relaxations less cutoffs) to the metrics and emits one
    ``route_probed`` event; a forced route counts only in
    ``routing.forced_routes``.
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
    queues_get = queues.get
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
            duration = cost / link.speed
            lb = d + duration
            if cur_t != inf or best_dst != inf:
                if lb > cur_t or (lb == cur_t and nh >= dist_h[v]) or lb > best_dst:
                    cutoffs += 1
                    continue
            probes += 1
            # Inlined ``find_gap_indexed`` with ``min_finish=0``: the start
            # floor ``max(d, -duration)`` collapses to ``d`` (both operands
            # non-negative here), and only the finish is needed.
            q = queues_get(link.lid)
            if q is None:
                arrival = lb
            else:
                starts = q.starts
                finishes = q.finishes
                k = len(starts)
                i = bisect_left(starts, lb)  # lb == d + duration
                prev_finish = finishes[i - 1] if i > 0 else 0.0
                while True:
                    start = prev_finish if prev_finish > d else d
                    arrival = start + duration
                    if i >= k or arrival <= starts[i]:
                        break
                    prev_finish = finishes[i]
                    i += 1
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
    _report_dijkstra(route, src, dst, dist_t[dst], probes, cutoffs, "insertion.probes")
    return route


class OIHSAScheduler(MLSScheduler):
    """Contention-aware scheduling with deferral-based optimal insertion."""

    name = "oihsa"

    def __init__(
        self,
        *,
        task_insertion: bool = False,
        modified_routing: bool = True,
        optimal_insertion: bool = True,
        edge_priority: bool = True,
        local_comm_exempt: bool = True,
        comm: CommModel = CUT_THROUGH,
    ) -> None:
        """The boolean knobs exist for the paper's ablations; the defaults
        are OIHSA as published."""
        self.task_insertion = task_insertion
        self.modified_routing = modified_routing
        self.optimal_insertion = optimal_insertion
        self.edge_priority = edge_priority
        self.local_comm_exempt = local_comm_exempt
        self.comm = comm
        self._lstate = LinkScheduleState()

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        super()._begin(graph, net)
        self._lstate = LinkScheduleState()

    def _search(
        self, net: NetworkTopology, src: int, dst: int, cost: float, ready: float
    ) -> Route:
        queues = self._lstate._queues  # repro-lint: disable=TXN001 (read-only hoist: no per-probe method call)
        return _dijkstra_indexed(net, src, dst, ready, cost, queues)

    def _book_local(self, e: CommEdge, ready: float) -> float:
        self._lstate.record_route(e.key, ())
        return ready

    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        route = self._route(net, src, dst, e.cost, ready)
        book = schedule_edge_optimal if self.optimal_insertion else schedule_edge_basic
        with span("insertion"):
            return book(self._lstate, e.key, route, e.cost, ready, self.comm)

    def _link_engine(self) -> dict[str, Any]:
        return {"link_state": self._lstate, "comm": self.comm}
