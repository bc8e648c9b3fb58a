"""Differential suite: hierarchical fabric routing vs the flat searches.

The fabric layer claims to be a *drop-in* replacement for flat routing
everywhere they overlap.  This module proves it by driving both paths
through identical inputs and comparing exactly:

1. route identity — on every fabric family, the attached
   :class:`~repro.network.routing.HierarchicalRouter` returns link-for-link
   the route a router-less clone's flat BFS returns, for every processor
   pair (small instances) or a deterministic sample (larger ones);
2. route costs — hop counts agree with OIHSA's contention-aware flat
   Dijkstra on idle unit-speed links (where arrival time is hop count) on
   fabrics *and* on the existing random topologies;
3. schedules — OIHSA / BBSA / BA makespans, placements, and link slot
   queues are bit-identical with the router attached vs detached;
4. invalidation — mutating a fabric topology detaches the router and drops
   its sharded lazy tables, so stale routes can never be served (the
   regression the seam fix closes);
5. laziness — a scheduling run on a fabric materializes strictly fewer
   route entries than the full ``(src, dst)`` cross product.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.core import SCHEDULERS
from repro.core.oihsa import _dijkstra_indexed
from repro.network.builders import random_wan, switched_cluster
from repro.network.fabrics import (
    fabric_for_procs,
    kary_fat_tree,
    leaf_spine,
    torus_fabric,
)
from repro.network.routing import bfs_route
from repro.taskgraph.ccr import scale_to_ccr
from repro.taskgraph.generators import random_layered_dag

# Differential checks are exact (==), never approximate: the acceptance bar
# is bit-identical behavior, so any drift must fail loudly.

ROUTES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SCHED = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: (label, zero-argument builder) — rebuilt fresh for router/flat clones.
FABRICS = [
    ("fat_tree_k4", lambda: kary_fat_tree(4)),
    ("fat_tree_k4_capped", lambda: kary_fat_tree(4, n_procs=11)),
    ("fat_tree_k6", lambda: kary_fat_tree(6, hosts_per_edge=1)),
    ("leaf_spine_4x3", lambda: leaf_spine(4, 3, 4)),
    ("leaf_spine_1leaf", lambda: leaf_spine(1, 2, 6)),
    ("torus_3x4", lambda: torus_fabric((3, 4), hosts_per_node=2)),
    ("torus_2x3x2", lambda: torus_fabric((2, 3, 2))),
]


def _route_ids(net, s, d):
    return [l.lid for l in bfs_route(net, s, d)]


def _all_pairs(net, limit=400):
    procs = [p.vid for p in net.processors()]
    pairs = [(s, d) for s in procs for d in procs if s != d]
    step = max(1, len(pairs) // limit)
    return pairs[::step]


@pytest.mark.parametrize("label,build", FABRICS, ids=[f[0] for f in FABRICS])
class TestRouteIdentity:
    def test_router_matches_flat_bfs_link_for_link(self, label, build):
        routed = build()
        assert routed.attached_router is not None
        flat = build()
        flat.detach_router()
        assert flat.attached_router is None
        for s, d in _all_pairs(routed):
            assert _route_ids(routed, s, d) == _route_ids(flat, s, d)

    def test_hop_counts_match_uniform_dijkstra(self, label, build):
        routed = build()
        flat = build()
        flat.detach_router()
        for s, d in _all_pairs(routed, limit=100):
            hops = len(bfs_route(routed, s, d))
            assert hops == len(_dijkstra_indexed(flat, s, d, 0.0, 1.0, {}))


class TestRandomTopologyCosts:
    """Flat BFS vs idle-link Dijkstra on the paper's random networks."""

    @ROUTES
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 24))
    def test_random_wan_hop_counts(self, seed, n):
        net = random_wan(n, rng=seed)
        for s, d in _all_pairs(net, limit=40):
            assert len(bfs_route(net, s, d)) == len(
                _dijkstra_indexed(net, s, d, 0.0, 1.0, {})
            )

    @ROUTES
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(
        ["fat_tree", "leaf_spine", "torus"]
    ))
    def test_sized_fabric_route_identity(self, seed, kind):
        n = 3 + seed % 22
        routed = fabric_for_procs(kind, n)
        flat = fabric_for_procs(kind, n)
        flat.detach_router()
        for s, d in _all_pairs(routed, limit=60):
            assert _route_ids(routed, s, d) == _route_ids(flat, s, d)


def _schedule_fingerprint(schedule):
    """Everything observable about a schedule, exactly."""
    placements = {
        t: (p.processor, p.start, p.finish)
        for t, p in schedule.placements.items()
    }
    state = getattr(schedule, "link_state", None)
    slots = {}
    if state is not None:
        slots = {lid: list(state.slots(lid)) for lid in state.used_links()}
    return schedule.makespan, placements, slots


@pytest.mark.parametrize("algo", ["ba", "oihsa", "bbsa"])
@pytest.mark.parametrize(
    "label,build",
    [
        ("fat_tree_k4", lambda: kary_fat_tree(4)),
        ("leaf_spine_3x2", lambda: leaf_spine(3, 2, 4)),
        ("torus_3x3", lambda: torus_fabric((3, 3))),
    ],
    ids=["fat_tree_k4", "leaf_spine_3x2", "torus_3x3"],
)
class TestScheduleBitIdentity:
    """OIHSA/BBSA/BA schedules are unchanged by the hierarchical router."""

    @SCHED
    @given(seed=st.integers(0, 10_000))
    def test_makespans_and_slots_identical(self, algo, label, build, seed):
        graph = random_layered_dag(14 + seed % 10, rng=seed)
        if graph.num_edges:  # an edgeless DAG cannot be scaled to a CCR
            graph = scale_to_ccr(graph, 2.0)
        routed = build()
        flat = build()
        flat.detach_router()
        with_router = SCHEDULERS[algo]().schedule(graph, routed)
        without = SCHEDULERS[algo]().schedule(graph, flat)
        assert _schedule_fingerprint(with_router) == _schedule_fingerprint(
            without
        )


class TestInvalidation:
    """Topology mutation must drop the sharded lazy tables (seam fix)."""

    def test_connect_detaches_router_and_reroutes(self):
        net = leaf_spine(2, 1, 2)
        procs = [p.vid for p in net.processors()]
        s, d = procs[0], procs[-1]  # cross-leaf pair: 4 hops via the spine
        assert len(bfs_route(net, s, d)) == 4
        router = net.attached_router
        assert router is not None
        assert router.materialized_entries() == 1
        # Mutate: a direct cable makes the old cached route non-minimal.
        net.connect(s, d, 1.0)
        assert net.attached_router is None
        route = bfs_route(net, s, d)
        assert len(route) == 1
        assert route[0].src == s and route[0].dst == d

    def test_add_processor_detaches_router(self):
        net = kary_fat_tree(2)
        procs = [p.vid for p in net.processors()]
        bfs_route(net, procs[0], procs[1])
        net.add_processor(1.0)
        assert net.attached_router is None

    def test_add_bus_detaches_router(self):
        net = torus_fabric((2, 2))
        procs = [p.vid for p in net.processors()]
        bfs_route(net, procs[0], procs[1])
        net.add_bus(procs, 1.0)
        assert net.attached_router is None

    def test_flat_route_table_also_invalidated(self):
        # The pre-existing flat memo goes through the same seam.
        net = switched_cluster(3)
        procs = [p.vid for p in net.processors()]
        assert len(bfs_route(net, procs[0], procs[1])) == 2
        net.connect(procs[0], procs[1], 1.0)
        assert len(bfs_route(net, procs[0], procs[1])) == 1


class TestLazyMaterialization:
    """A scheduling run touches far fewer pairs than the cross product."""

    def test_ba_run_materializes_sparse_table(self):
        graph = scale_to_ccr(random_layered_dag(40, rng=5), 1.0)
        net = fabric_for_procs("leaf_spine", 64)
        obs.enable(obs.NullSink())
        obs.reset()
        try:
            SCHEDULERS["ba"]().schedule(graph, net)
            counters = obs.METRICS.snapshot()["counters"]
        finally:
            obs.disable()
        router = net.attached_router
        stats = router.stats()
        assert stats["cross_product_entries"] == 64 * 63
        assert 0 < stats["materialized_entries"] < stats["cross_product_entries"]
        assert counters.get("routing.lazy_materialized", 0) == stats[
            "materialized_entries"
        ]
        # Repeat routes hit the sharded tables, not fresh searches.
        assert counters.get("routing.table_hits", 0) > 0
