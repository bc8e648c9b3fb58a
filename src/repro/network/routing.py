"""Route search over network topologies.

Two routing policies, matching the paper:

- :func:`bfs_route` — BA's *minimal routing*: shortest path in hop count,
  found by breadth-first search.  Static: ignores link speeds and load.
- OIHSA/BBSA's *modified routing*: Dijkstra where relaxing a link asks "when
  would this communication finish on this link, given the current link
  schedules, if it becomes available at time t?", so the route adapts to
  live contention.  The answer depends on each scheduler's link model, so
  each scheduler owns its search, with its probe inlined into the relax
  loop: :func:`repro.core.oihsa._dijkstra_indexed` (slot queues) and
  :func:`repro.core.bbsa._dijkstra_fluid` (fluid bandwidth).  Both check
  their endpoints and report to :mod:`repro.obs` through the helpers here.

Both tie-break deterministically (lowest link id wins) so schedules are
reproducible, and neither relaxes a dead end (see
:meth:`~repro.network.topology.NetworkTopology.sole_out_neighbours`).  The
modified routing also skips the search where the topology leaves a single
path (:func:`_forced_route`) and otherwise relaxes only transit links (see
:meth:`~repro.network.topology.NetworkTopology.route_structure`).  Every
topology, the datacenter fabrics included, routes through them.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import RoutingError
from repro.network.topology import Link, NetworkTopology, Route
from repro.obs import OBS
from repro.types import VertexId


def _check_endpoints(net: NetworkTopology, src: VertexId, dst: VertexId) -> None:
    for vid in (src, dst):
        if not net.vertex(vid).is_processor:
            raise RoutingError(f"route endpoint {vid} is not a processor")


def _forced_route(net: NetworkTopology, src: VertexId, dst: VertexId) -> Route | None:
    """The modified routing's route when the topology offers no choice.

    When ``src``'s only out-link and ``dst``'s only in-link meet at one
    vertex ``h`` (two processors hanging off one switch by single cables),
    the route is ``[src->h, h->dst]`` whatever the link schedules: ``h`` is
    the only vertex ``src`` reaches, so it settles right after ``src``, and
    ``dst`` can be reached from ``h`` alone, by that one link.  The search
    could return nothing else, so it is not run.  Returns ``None`` for any
    other pair, which the caller then searches.

    With observability on, a forced route adds one ``routing.forced_routes``
    and emits a ``route_probed`` event with policy ``"forced"`` and, like
    BFS's, no arrival: it makes no relaxation and no probe.
    """
    structure = net.route_structure()
    up = structure.uplink[src]
    down = structure.downlink[dst]
    if up is None or down is None or up[1] != down[1]:
        return None
    route = [up[0], down[0]]
    if OBS.on:
        OBS.metrics.counter("routing.forced_routes").inc()
        OBS.metrics.histogram("routing.route_length").observe(2.0)
        OBS.emit(
            "route_probed",
            policy="forced",
            src=src,
            dst=dst,
            hops=2,
            links=[l.lid for l in route],
        )
    return route


def bfs_route(net: NetworkTopology, src: VertexId, dst: VertexId) -> Route:
    """Minimal (fewest-links) route from processor ``src`` to ``dst``.

    Returns ``[]`` when ``src == dst``.  Ties between equal-hop paths break
    toward smaller link ids, matching a deterministic BFS expansion order.
    The search skips a vertex ``v != dst`` whose every out-link leads back
    to the vertex it is reached from: no route passes through such a dead
    end, so skipping it changes no route.

    Minimal routes are purely topological, so results are memoized in
    :meth:`~repro.network.topology.NetworkTopology.route_table` and shared
    across all engines; callers must treat the returned route as
    read-only.  Any topology mutation drops the memo.
    """
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    table = net.route_table()
    cached = table.get((src, dst))
    if cached is not None:
        if OBS.on:
            OBS.metrics.counter("routing.table_hits").inc()
        return cached
    # Vertex ids are dense ``0..n-1`` (sequential assignment, no removal), so
    # the search state lives in flat arrays instead of dicts/sets.
    n = net.num_vertices
    sole = net.sole_out_neighbours()
    parent_v: list[VertexId] = [-1] * n
    parent_l: list[Link | None] = [None] * n
    seen = bytearray(n)
    seen[src] = 1
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for link, v in net.sorted_out_links(u):
            if seen[v] or (sole[v] == u and v != dst):
                continue
            seen[v] = 1
            parent_v[v] = u
            parent_l[v] = link
            if v == dst:
                frontier.clear()
                break
            frontier.append(v)
    if parent_l[dst] is None:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    route: Route = []
    cur = dst
    while cur != src:
        link = parent_l[cur]
        assert link is not None  # every non-src chain vertex has a parent
        route.append(link)
        cur = parent_v[cur]
    route.reverse()
    table[(src, dst)] = route
    if OBS.on:
        OBS.metrics.counter("routing.bfs_routes").inc()
        OBS.metrics.histogram("routing.route_length").observe(float(len(route)))
        OBS.emit(
            "route_probed",
            policy="bfs",
            src=src,
            dst=dst,
            hops=len(route),
            links=[l.lid for l in route],
        )
    return route


def _report_dijkstra(
    route: Route,
    src: VertexId,
    dst: VertexId,
    arrival: float,
    probes: int,
    cutoffs: int,
    probe_counter: str,
) -> None:
    """Report one modified-routing search (a no-op with observability off).

    The fused searches count in local integers and hand the totals over
    once per call: ``probes`` link probes made and ``cutoffs`` relaxations
    a lower bound pruned, so ``routing.relaxations`` is their sum and
    ``probe_counter`` (the scheduler's probe metric) gets ``probes``.
    """
    if OBS.on:
        metrics = OBS.metrics
        relaxations = probes + cutoffs
        metrics.counter("routing.dijkstra_routes").inc()
        metrics.counter("routing.relaxations").inc(relaxations)
        if cutoffs:
            metrics.counter("routing.probe_cutoffs").inc(cutoffs)
        metrics.counter(probe_counter).inc(probes)
        metrics.histogram("routing.route_length").observe(float(len(route)))
        OBS.emit(
            "route_probed",
            t=arrival,
            policy="dijkstra",
            src=src,
            dst=dst,
            hops=len(route),
            relaxations=relaxations,
            arrival=arrival,
            links=[l.lid for l in route],
        )
