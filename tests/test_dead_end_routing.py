"""Dead-end skipping in the route searches.

OIHSA's and BBSA's modified routing and BA's minimal routing never relax a
vertex whose every out-link leads back to the vertex it is reached from (a
leaf processor, a 2-member bus, a degree-1 switch).  The claim is that this
changes nothing but the work done, so this module checks, exactly:

1. the sole-neighbour table the skip reads, and its invalidation;
2. for every ordered processor pair, against live link state captured in
   the middle of a real OIHSA / BBSA run, the route of the fused search
   equals the route of the unpruned
   :func:`tests.naive_reference.naive_dijkstra_route` driven by the linear
   gap scan (OIHSA) or the general fluid sweep (BBSA);
3. the only relaxations the fused search skips are dead ends: its
   ``routing.relaxations`` equals the reference's relaxations less the
   reference's ``routing.dead_end_relaxations``;
4. for every ordered processor pair, :func:`~repro.network.routing
   .bfs_route` returns the route of the unpruned
   :func:`tests.naive_reference.naive_bfs_route`, on the datacenter fabrics
   as well.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.bbsa as bbsa_mod
import repro.core.oihsa as oihsa_mod
from repro import obs
from repro.core.bbsa import BBSAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.linksched.bandwidth import BandwidthLinkState, _FEPS
from repro.linksched.state import LinkScheduleState
from repro.network.builders import (
    linear_array,
    random_wan,
    shared_bus,
    switched_cluster,
)
from repro.network.fabrics import FABRIC_KINDS, fabric_for_procs
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology
from repro.taskgraph.generators import random_layered_dag
from tests.naive_reference import (
    naive_bfs_route,
    naive_dijkstra_fluid,
    naive_dijkstra_indexed,
)

ROUTES = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def stub_network(rng: int) -> NetworkTopology:
    """A star with every kind of dead end hanging off it.

    Processor ``Pb`` joins the central switch through a 2-member bus, a
    degree-1 switch hangs off the central switch, and another hangs off
    processor ``P0`` (so ``P0`` itself has two neighbours and is *not* a
    dead end).
    """
    net = switched_cluster(3, rng=rng, link_speed=(1, 4))
    hub = net.switches()[0].vid
    p0 = net.processors()[0].vid
    pb = net.add_processor(speed=2.0)
    net.add_bus([pb.vid, hub], speed=3.0)
    net.connect(net.add_switch(), hub, speed=2.0)
    net.connect(net.add_switch(), p0, speed=1.0)
    return net


topologies = st.one_of(
    st.builds(
        lambda n, s: random_wan(
            n, rng=s, procs_per_switch=(1, 4), link_speed=(1, 10)
        ),
        st.integers(2, 10),
        st.integers(0, 999),
    ),
    st.builds(
        lambda n, s: switched_cluster(n, rng=s, link_speed=(1, 10)),
        st.integers(2, 6),
        st.integers(0, 999),
    ),
    st.builds(
        lambda n, s: linear_array(n, rng=s, link_speed=(1, 10)),
        st.integers(2, 6),
        st.integers(0, 999),
    ),
    st.builds(lambda s: shared_bus(2, rng=s), st.integers(0, 999)),
    st.builds(stub_network, st.integers(0, 999)),
)

#: the Dijkstra inputs plus every fabric family, sized to 1..40 processors
bfs_topologies = st.one_of(
    topologies,
    st.builds(fabric_for_procs, st.sampled_from(FABRIC_KINDS), st.integers(1, 40)),
)

graphs = st.builds(
    lambda n, seed: random_layered_dag(n, rng=seed, density=0.4),
    n=st.integers(4, 16),
    seed=st.integers(0, 10_000),
)


class TestSoleNeighbourTable:
    def test_values_on_every_kind_of_dead_end(self):
        net = stub_network(0)
        sole = net.sole_out_neighbours()
        hub = net.switches()[0].vid
        p0, p1, p2, pb = (p.vid for p in net.processors())
        stub_hub, stub_p0 = (s.vid for s in net.switches()[1:])
        assert sole[p1] == sole[p2] == hub  # leaf processors
        assert sole[pb] == hub  # 2-member bus
        assert sole[stub_hub] == hub and sole[stub_p0] == p0  # degree-1 switches
        assert sole[p0] == -1 and sole[hub] == -1

    def test_linear_array_ends_and_interior(self):
        net = linear_array(4)
        ids = [p.vid for p in net.processors()]
        assert net.sole_out_neighbours() == [ids[1], -1, -1, ids[2]]

    def test_isolated_vertex_has_no_sole_neighbour(self):
        net = NetworkTopology()
        net.add_processor()
        assert net.sole_out_neighbours() == [-1]

    def test_mutation_invalidates(self):
        net = linear_array(3)
        ids = [p.vid for p in net.processors()]
        assert net.sole_out_neighbours()[ids[0]] == ids[1]
        net.connect(ids[0], ids[2])
        assert net.sole_out_neighbours()[ids[0]] == -1
        extra = net.add_processor()
        assert len(net.sole_out_neighbours()) == net.num_vertices
        assert net.sole_out_neighbours()[extra.vid] == -1


# ---------------------------------------------------------------------------
# Pruned vs unpruned search against live mid-schedule link state.
# ---------------------------------------------------------------------------


def _capture(module, fused: str, run, call_index: int):
    """Run ``run()`` with ``module.<fused>`` spied on; return a copy of the
    link state and the ``(ready, cost)`` of route search number
    ``call_index`` (the last one if there were fewer), or ``None`` if the
    run never routed."""
    real = getattr(module, fused)
    calls = 0
    snapshot = None

    def spy(net, src, dst, ready, cost, state, *rest):
        nonlocal calls, snapshot
        if calls <= call_index:
            copied = {lid: item.copy() for lid, item in state.items()}
            snapshot = (copied, ready, cost)
        calls += 1
        return real(net, src, dst, ready, cost, state, *rest)

    setattr(module, fused, spy)
    try:
        run()
    finally:
        setattr(module, fused, real)
    return snapshot


def _counted(fn) -> tuple[object, dict]:
    """``fn()`` with observability on; its result and counters."""
    obs.enable(obs.NullSink())
    obs.reset()
    try:
        result = fn()
        counters = dict(obs.METRICS.snapshot()["counters"])
    finally:
        obs.disable()
    return result, counters


def _assert_all_pairs_match(net, sched, ready, cost, oracle):
    """``oracle(src, dst)`` runs the reference search on the same state."""
    procs = [p.vid for p in net.processors()]
    for src in procs:
        for dst in procs:
            if src == dst:
                continue
            expected, ref = _counted(lambda: oracle(src, dst))
            route, got = _counted(lambda: sched._route(net, src, dst, cost, ready))
            assert route == expected, (src, dst)
            skipped = ref.get("routing.dead_end_relaxations", 0)
            assert got["routing.relaxations"] == (
                ref["routing.relaxations"] - skipped
            ), (src, dst)


class TestPrunedMatchesNaive:
    @ROUTES
    @given(net=topologies, graph=graphs, call_index=st.integers(0, 40))
    def test_indexed_probe(self, net, graph, call_index):
        captured = _capture(
            oihsa_mod, "_dijkstra_indexed",
            lambda: OIHSAScheduler().schedule(graph, net), call_index,
        )
        queues, ready, cost = captured if captured else ({}, 0.0, 10.0)
        lstate = LinkScheduleState()
        lstate._queues = queues
        sched = OIHSAScheduler()
        sched._lstate = lstate
        _assert_all_pairs_match(
            net, sched, ready, cost,
            lambda src, dst: naive_dijkstra_indexed(net, src, dst, ready, cost, queues),
        )

    @ROUTES
    @given(net=topologies, graph=graphs, call_index=st.integers(0, 40))
    def test_fluid_probe(self, net, graph, call_index):
        captured = _capture(
            bbsa_mod, "_dijkstra_fluid",
            lambda: BBSAScheduler().schedule(graph, net), call_index,
        )
        profiles, ready, cost = captured if captured else ({}, 0.0, 10.0)
        sched = BBSAScheduler()
        sched._bstate = BandwidthLinkState(_profiles=profiles)
        _assert_all_pairs_match(
            net, sched, ready, cost,
            lambda src, dst: naive_dijkstra_fluid(
                net, src, dst, ready, cost, profiles, cost <= _FEPS
            ),
        )


class TestBfsMatchesNaive:
    @ROUTES
    @given(net=bfs_topologies)
    def test_every_pair(self, net):
        procs = [p.vid for p in net.processors()]
        for src in procs:
            for dst in procs:
                route = [l.lid for l in bfs_route(net, src, dst)]
                assert route == [l.lid for l in naive_bfs_route(net, src, dst)], (
                    src, dst,
                )


@pytest.mark.parametrize("src_end", [True, False])
def test_leaf_end_is_routed_to_and_from(src_end):
    """A linear array's end processors are dead ends for every search that
    does not start or stop there — and must still be reachable."""
    net = linear_array(4)
    ids = [p.vid for p in net.processors()]
    src, dst = (ids[0], ids[3]) if src_end else (ids[3], ids[0])
    sched = OIHSAScheduler()
    route, counters = _counted(lambda: sched._route(net, src, dst, 5.0, 0.0))
    assert len(route) == 3
    assert counters["routing.relaxations"] == 3  # nothing to skip end to end
    _, counters = _counted(lambda: sched._route(net, ids[1], ids[2], 5.0, 0.0))
    assert counters["routing.relaxations"] == 1  # ids[0] skipped from ids[1]
    _, ref = _counted(
        lambda: naive_dijkstra_indexed(net, ids[1], ids[2], 0.0, 5.0, {})
    )
    assert ref["routing.relaxations"] == 2
    assert ref["routing.dead_end_relaxations"] == 1
