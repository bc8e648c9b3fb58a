"""Differential suite: minimal routing on fabrics vs its reference search.

Every topology, the datacenter fabrics included, gets its minimal routes
from :func:`~repro.network.routing.bfs_route` and the flat route memo it
fills.  This module drives it and its references through identical inputs
and compares exactly:

1. route identity — on every fabric family, ``bfs_route`` (memo and
   dead-end skip included) returns link-for-link the route of the unpruned
   :func:`tests.naive_reference.naive_bfs_route`, for every processor pair
   (small instances) or a deterministic sample (larger ones);
2. route costs — hop counts agree with OIHSA's contention-aware Dijkstra on
   idle unit-speed links (where arrival time is hop count) on fabrics *and*
   on the existing random topologies;
3. invalidation — mutating a topology drops the route memo, so stale
   routes can never be served;
4. laziness — a scheduling run on a fabric fills strictly fewer memo
   entries than the full ``(src, dst)`` cross product.
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
from tests.naive_reference import naive_bfs_route

# Differential checks are exact (==), never approximate: the acceptance bar
# is bit-identical behavior, so any drift must fail loudly.

ROUTES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: (label, zero-argument builder) — a fresh topology (cold memo) per test.
FABRICS = [
    ("fat_tree_k4", lambda: kary_fat_tree(4)),
    ("fat_tree_k4_capped", lambda: kary_fat_tree(4, n_procs=11)),
    ("fat_tree_k6", lambda: kary_fat_tree(6, hosts_per_edge=1)),
    ("leaf_spine_4x3", lambda: leaf_spine(4, 3, 4)),
    ("leaf_spine_1leaf", lambda: leaf_spine(1, 2, 6)),
    ("torus_3x4", lambda: torus_fabric((3, 4), hosts_per_node=2)),
    ("torus_2x3x2", lambda: torus_fabric((2, 3, 2))),
]


def _lids(route):
    return [l.lid for l in route]


def _all_pairs(net, limit=400):
    procs = [p.vid for p in net.processors()]
    pairs = [(s, d) for s in procs for d in procs if s != d]
    step = max(1, len(pairs) // limit)
    return pairs[::step]


def _assert_routes_match_naive(net, pairs):
    for s, d in pairs:
        expected = _lids(naive_bfs_route(net, s, d))
        assert _lids(bfs_route(net, s, d)) == expected, (s, d)
        assert _lids(bfs_route(net, s, d)) == expected, (s, d)  # memo hit


@pytest.mark.parametrize("label,build", FABRICS, ids=[f[0] for f in FABRICS])
class TestRouteIdentity:
    def test_router_matches_flat_bfs_link_for_link(self, label, build):
        # The production router (``bfs_route``) against the flat reference.
        net = build()
        _assert_routes_match_naive(net, _all_pairs(net))

    def test_hop_counts_match_uniform_dijkstra(self, label, build):
        net = build()
        for s, d in _all_pairs(net, limit=100):
            hops = len(bfs_route(net, s, d))
            assert hops == len(_dijkstra_indexed(net, s, d, 0.0, 1.0, {}))


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
        net = fabric_for_procs(kind, 3 + seed % 22)
        _assert_routes_match_naive(net, _all_pairs(net, limit=60))


class TestInvalidation:
    """Topology mutation drops the route memo."""

    def test_flat_route_table_also_invalidated(self):
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
        entries = len(net.route_table())
        assert 0 < entries < 64 * 63
        assert counters.get("routing.bfs_routes", 0) == entries
        # Repeat routes hit the memo, not fresh searches.
        assert counters.get("routing.table_hits", 0) > 0
