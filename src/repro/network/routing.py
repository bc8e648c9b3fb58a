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
reproducible.

On top of the flat searches sits the datacenter-fabric layer:

- :class:`HierarchicalRouter` — attached to a topology by the fabric
  generators (:mod:`repro.network.fabrics`), it serves minimal routes from
  **per-pod sharded, lazily materialized** route tables, computing each
  route analytically from the fabric's regular structure where that
  provably reproduces the flat BFS tie-break, and falling back to the exact
  flat search otherwise.  Routes are therefore *bit-identical* to
  :func:`bfs_route` on a plain topology while a thousand-processor fabric
  never has to build the full ``(src, dst)`` cross-product table.
- :func:`equal_cost_routes` — enumerates the full ECMP set of minimal
  routes between two processors in deterministic (lexicographic link-id)
  order, for symmetric point-to-point topologies.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from repro.exceptions import RoutingError
from repro.network.topology import Link, NetworkTopology, Route
from repro.obs import OBS
from repro.types import VertexId


def _check_endpoints(net: NetworkTopology, src: VertexId, dst: VertexId) -> None:
    for vid in (src, dst):
        if not net.vertex(vid).is_processor:
            raise RoutingError(f"route endpoint {vid} is not a processor")


def _bfs_search(net: NetworkTopology, src: VertexId, dst: VertexId) -> Route:
    """The canonical BFS tie-break search, uncached and unobserved.

    One implementation shared by the flat :func:`bfs_route` path and the
    :class:`HierarchicalRouter` fallback, so "the route flat BFS would pick"
    is defined in exactly one place.
    """
    # Vertex ids are dense ``0..n-1`` (sequential assignment, no removal), so
    # the search state lives in flat arrays instead of dicts/sets.
    n = net.num_vertices
    parent_v: list[VertexId] = [-1] * n
    parent_l: list[Link | None] = [None] * n
    seen = bytearray(n)
    seen[src] = 1
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for link, v in net.sorted_out_links(u):
            if seen[v]:
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
    return route


def bfs_route(net: NetworkTopology, src: VertexId, dst: VertexId) -> Route:
    """Minimal (fewest-links) route from processor ``src`` to ``dst``.

    Returns ``[]`` when ``src == dst``.  Ties between equal-hop paths break
    toward smaller link ids, matching a deterministic BFS expansion order.

    Minimal routes are purely topological, so results are memoized and
    shared across all engines; callers must treat the returned route as
    read-only.  On a plain topology the memo is the flat
    :meth:`~repro.network.topology.NetworkTopology.route_table`; when a
    fabric generator attached a :class:`HierarchicalRouter`, routes come
    from its sharded lazy tables instead (same routes, bounded memory).
    Both are invalidated by any topology mutation.
    """
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    router = net.attached_router
    if router is not None:
        return router.minimal_route(src, dst)
    table = net.route_table()
    cached = table.get((src, dst))
    if cached is not None:
        if OBS.on:
            OBS.metrics.counter("routing.table_hits").inc()
        return cached
    route = _bfs_search(net, src, dst)
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


# ---------------------------------------------------------------------------
# Datacenter-fabric layer: ECMP sets + sharded lazy hierarchical routing.
# ---------------------------------------------------------------------------


class FabricPlan(Protocol):
    """The structural knowledge a fabric generator hands to the router.

    Implementations live in :mod:`repro.network.fabrics`; the router only
    needs three capabilities and stays agnostic of the concrete fabric.
    """

    #: fabric family name ("fat_tree" / "leaf_spine" / "torus")
    kind: str

    def shard_of(self, vid: VertexId) -> int:
        """Route-table shard of processor ``vid`` (its pod / leaf / slab)."""
        ...

    def canonical_route(
        self, net: NetworkTopology, src: VertexId, dst: VertexId
    ) -> Route | None:
        """The route flat BFS would return, computed from fabric structure.

        Returns ``None`` when the fabric cannot *prove* its analytic choice
        matches the flat BFS tie-break (the router then falls back to the
        exact shared search) — correctness is never traded for speed.
        """
        ...

    def equal_cost_routes(
        self,
        net: NetworkTopology,
        src: VertexId,
        dst: VertexId,
        max_paths: int,
    ) -> list[Route]:
        """The ECMP set: minimal routes in deterministic order."""
        ...


class HierarchicalRouter:
    """Sharded, lazily materialized minimal routing for regular fabrics.

    Satisfies :class:`repro.network.topology.MinimalRouter`.  Routes are
    bit-identical to :func:`bfs_route` on the same (router-less) topology:
    the fabric plan either reproduces the BFS tie-break analytically in
    O(route length) or the router runs the exact shared BFS.  What changes
    is the *memory shape* — entries live in per-shard dictionaries filled
    only for the ``(src, dst)`` pairs actually routed, so a 1k–4k processor
    fabric never holds the full cross-product table.
    """

    def __init__(self, net: NetworkTopology, fabric: FabricPlan) -> None:
        self._net = net
        self.fabric = fabric
        self._shards: dict[int, dict[tuple[VertexId, VertexId], Route]] = {}
        self._materialized = 0
        self._analytic = 0

    # -- MinimalRouter protocol ---------------------------------------------

    def minimal_route(self, src: VertexId, dst: VertexId) -> Route:
        shard = self._shards.get(self.fabric.shard_of(src))
        if shard is not None:
            cached = shard.get((src, dst))
            if cached is not None:
                if OBS.on:
                    OBS.metrics.counter("routing.table_hits").inc()
                return cached
        return self._materialize(src, dst)

    def materialized_entries(self) -> int:
        return self._materialized

    # -- internals ----------------------------------------------------------

    def _materialize(self, src: VertexId, dst: VertexId) -> Route:
        net = self._net
        route = self.fabric.canonical_route(net, src, dst)
        analytic = route is not None
        if route is None:
            route = _bfs_search(net, src, dst)
        shard_key = self.fabric.shard_of(src)
        shard = self._shards.get(shard_key)
        if shard is None:
            shard = {}
            self._shards[shard_key] = shard
        shard[(src, dst)] = route
        self._materialized += 1
        if analytic:
            self._analytic += 1
        if OBS.on:
            OBS.metrics.counter("routing.lazy_materialized").inc()
            if analytic:
                OBS.metrics.counter("routing.fabric_routes").inc()
            else:
                OBS.metrics.counter("routing.bfs_routes").inc()
            OBS.metrics.histogram("routing.route_length").observe(float(len(route)))
            OBS.emit(
                "route_probed",
                policy="fabric" if analytic else "bfs",
                src=src,
                dst=dst,
                hops=len(route),
                links=[l.lid for l in route],
            )
        return route

    def ecmp_routes(
        self, src: VertexId, dst: VertexId, *, max_paths: int = 64
    ) -> list[Route]:
        """All equal-cost minimal routes ``src -> dst`` (capped, ordered)."""
        _check_endpoints(self._net, src, dst)
        if src == dst:
            return []
        if max_paths < 1:
            raise RoutingError(f"max_paths must be >= 1, got {max_paths}")
        return self.fabric.equal_cost_routes(self._net, src, dst, max_paths)

    def stats(self) -> dict[str, int]:
        """Materialization accounting (the lazy-table acceptance numbers)."""
        n_procs = len(self._net.processors())
        return {
            "shards": len(self._shards),
            "materialized_entries": self._materialized,
            "analytic_routes": self._analytic,
            "cross_product_entries": n_procs * (n_procs - 1),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierarchicalRouter(kind={self.fabric.kind!r}, "
            f"shards={len(self._shards)}, materialized={self._materialized})"
        )


def equal_cost_routes(
    net: NetworkTopology,
    src: VertexId,
    dst: VertexId,
    *,
    max_paths: int = 64,
) -> list[Route]:
    """Every minimal route ``src -> dst``, in lexicographic link-id order.

    Generic ECMP-set enumeration over the shortest-path DAG: one BFS from
    ``src`` (forward), one from ``dst`` (over reversed links), then a DFS
    that only follows links lying on *some* minimal path.  Requires the
    point-to-point links to be direction-symmetric (every fabric builder
    uses full-duplex cables; bus hyperedges are rejected) so the reverse
    distances are well defined.

    Enumeration stops after ``max_paths`` routes — the ECMP width of a
    large torus is combinatorial, and callers want "the first few, in a
    deterministic order" rather than an exhaustive blow-up.  The canonical
    :func:`bfs_route` choice is always a member of the full set (it is a
    minimal route); tests assert membership on fabrics where the cap is
    not hit.
    """
    _check_endpoints(net, src, dst)
    if src == dst:
        return []
    if max_paths < 1:
        raise RoutingError(f"max_paths must be >= 1, got {max_paths}")
    n = net.num_vertices
    inf = n + 1
    # Forward hop distances from src.
    dist_s = [inf] * n
    dist_s[src] = 0
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for link, v in net.sorted_out_links(u):
            if link.kind == "bus":
                raise RoutingError(
                    f"equal_cost_routes requires point-to-point links; "
                    f"link {link.lid} is a bus"
                )
            if dist_s[v] > dist_s[u] + 1:
                dist_s[v] = dist_s[u] + 1
                frontier.append(v)
    if dist_s[dst] >= inf:
        raise RoutingError(
            f"no route from processor {src} to {dst} in topology {net.name!r}"
        )
    # Reverse hop distances to dst: BFS over incoming links.
    in_adj: list[list[VertexId]] = [[] for _ in range(n)]
    for vtx in net.vertices():
        for _, v in net.out_links(vtx.vid):
            in_adj[v].append(vtx.vid)
    dist_t = [inf] * n
    dist_t[dst] = 0
    frontier = deque([dst])
    while frontier:
        u = frontier.popleft()
        for w in in_adj[u]:
            if dist_t[w] > dist_t[u] + 1:
                dist_t[w] = dist_t[u] + 1
                frontier.append(w)
    total = dist_s[dst]
    routes: list[Route] = []
    prefix: Route = []

    def _extend(u: VertexId) -> bool:
        """DFS in sorted link-id order; returns False once the cap is hit."""
        if u == dst:
            routes.append(list(prefix))
            return len(routes) < max_paths
        depth = len(prefix)
        for link, v in net.sorted_out_links(u):
            # On a minimal path iff the hop advances the src-distance and the
            # remaining distance fits the total exactly.
            if dist_s[v] == depth + 1 and depth + 1 + dist_t[v] == total:
                prefix.append(link)
                more = _extend(v)
                prefix.pop()
                if not more:
                    return False
        return True

    _extend(src)
    return routes
