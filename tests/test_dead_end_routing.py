"""Dead-end skipping, transit links and forced routes in the route searches.

OIHSA's and BBSA's modified routing and BA's minimal routing never relax a
vertex whose every out-link leads back to the vertex it is reached from (a
leaf processor, a 2-member bus, a degree-1 switch).  The modified routing
also relaxes only transit links (the out-links into no dead end) and does
not search at all between two processors whose single cables meet at one
vertex.  The claim is that this changes nothing but the work done, so this
module checks, exactly:

1. the route-structure table these read (sole neighbours, transit links,
   single uplinks and downlinks), and that every mutator drops it;
2. for every ordered processor pair, against live link state captured in
   the middle of a real OIHSA / BBSA run, the route of the fused search
   equals the route of the unpruned
   :func:`tests.naive_reference.naive_dijkstra_route` driven by the linear
   gap scan (OIHSA) or the general fluid sweep (BBSA) — on topologies where
   the forced route must be taken and where it must not;
3. the only relaxations the fused search skips are dead ends and forced
   pairs: its ``routing.relaxations`` equals the reference's relaxations
   less the reference's ``routing.dead_end_relaxations`` and
   ``routing.forced_relaxations``, and its ``routing.forced_routes`` counts
   exactly the pairs :func:`tests.naive_reference.forced_pair` names;
4. for every ordered processor pair, :func:`~repro.network.routing
   .bfs_route` returns the route of the unpruned
   :func:`tests.naive_reference.naive_bfs_route`, on the datacenter fabrics
   as well.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.bbsa as bbsa_mod
import repro.core.oihsa as oihsa_mod
from repro import obs
from repro.core.bbsa import BBSAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.linksched.bandwidth import _FEPS, BandwidthLinkState, BandwidthProfile
from repro.linksched.state import LinkScheduleState
from repro.network.builders import (
    linear_array,
    random_wan,
    shared_bus,
    switched_cluster,
)
from repro.network.fabrics import FABRIC_KINDS, fabric_for_procs, leaf_spine
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology
from repro.taskgraph.generators import random_layered_dag
from tests.naive_reference import (
    forced_pair,
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


def half_duplex_star(n: int, rng: int = 0) -> NetworkTopology:
    """``n`` processors on one switch, each by one half-duplex cable: the
    shared link is still one choice each way, so every pair is forced."""
    net = NetworkTopology(name=f"half-duplex-star-{n}")
    hub = net.add_switch()
    for i in range(n):
        net.connect(net.add_processor(), hub, speed=1.0 + (rng + i) % 4, duplex="half")
    return net


def dual_homed(rng: int = 0) -> NetworkTopology:
    """A switched cluster of three whose first two processors also reach a
    second switch: two uplinks each, so no pair is forced."""
    net = switched_cluster(3, rng=rng, link_speed=(1, 4))
    p0, p1, _ = (p.vid for p in net.processors())
    second = net.add_switch()
    net.connect(p0, second, speed=2.0)
    net.connect(p1, second, speed=3.0)
    return net


def parallel_cables(rng: int = 0) -> NetworkTopology:
    """A switched cluster of three whose first processor has two parallel
    cables to the switch: only the other two processors form forced pairs."""
    net = switched_cluster(3, rng=rng, link_speed=(1, 4))
    net.connect(net.processors()[0].vid, net.switches()[0].vid, speed=2.0)
    return net


def two_leaves(rng: int = 0) -> NetworkTopology:
    """A leaf-spine fabric, two leaves of three hosts under two spines:
    same-leaf pairs are forced, cross-leaf pairs choose a spine."""
    return leaf_spine(2, 2, 3, rng=rng, link_speed=(1, 4))


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
    st.builds(lambda n, s: shared_bus(n, rng=s), st.integers(2, 4), st.integers(0, 999)),
    st.builds(stub_network, st.integers(0, 999)),
    st.builds(half_duplex_star, st.integers(2, 4), st.integers(0, 999)),
    st.builds(dual_homed, st.integers(0, 999)),
    st.builds(parallel_cables, st.integers(0, 999)),
    st.builds(two_leaves, st.integers(0, 999)),
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

    def test_route_structure_values(self):
        net = stub_network(0)
        sole, transit, uplink, downlink = net.route_structure()
        assert sole is net.sole_out_neighbours()
        hub = net.switches()[0].vid
        p0, p1, p2, pb = (p.vid for p in net.processors())
        # Leaves, the bus member and the stub switches are dead ends from
        # the vertex they hang off: only the hub <-> p0 links are transit.
        assert [v for _, v in transit[hub]] == [p0]
        assert [v for _, v in transit[p0]] == [hub]
        for leaf in (p1, p2, pb):
            ((up, head),) = net.out_links(leaf)
            assert uplink[leaf] == (up, hub) and head == hub
            link, tail = downlink[leaf]
            assert tail == hub and (link, leaf) in net.out_links(hub)
        assert uplink[p0] is None and downlink[p0] is None  # two neighbours
        assert uplink[hub] is None and downlink[hub] is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net, a, b: net.add_processor(),
            lambda net, a, b: net.add_switch(),
            lambda net, a, b: net.connect(a, b),
            lambda net, a, b: net.connect(a, b, duplex="half"),
            lambda net, a, b: net.add_bus([a, b]),
        ],
        ids=["add_processor", "add_switch", "connect", "connect-half", "add_bus"],
    )
    def test_every_mutator_drops_the_route_structure(self, mutate):
        net = linear_array(3)
        a, _, c = (p.vid for p in net.processors())
        stale = net.route_structure()
        assert stale.uplink[a] is not None  # a -> middle -> c is forced
        mutate(net, a, c)
        fresh = net.route_structure()
        assert fresh is not stale
        assert len(fresh.sole) == len(fresh.transit) == net.num_vertices
        assert len(fresh.uplink) == len(fresh.downlink) == net.num_vertices
        forced = fresh.uplink[a] is not None
        assert forced == forced_pair(net, a, c)


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
            snapshot = (copy.deepcopy(state), ready, cost)
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


def _assert_all_pairs_match(net, sched, ready, cost, oracle) -> int:
    """``oracle(src, dst)`` runs the reference search on the same state.

    Returns the number of forced routes the fused search took, after
    checking each against the reference's :func:`forced_pair` verdict.
    """
    procs = [p.vid for p in net.processors()]
    forced = 0
    for src in procs:
        for dst in procs:
            if src == dst:
                continue
            expected, ref = _counted(lambda: oracle(src, dst))
            route, got = _counted(lambda: sched._route(net, src, dst, cost, ready))
            assert route == expected, (src, dst)
            skipped = ref.get("routing.dead_end_relaxations", 0) + ref.get(
                "routing.forced_relaxations", 0
            )
            assert got.get("routing.relaxations", 0) == (
                ref["routing.relaxations"] - skipped
            ), (src, dst)
            taken = got.get("routing.forced_routes", 0)
            assert taken == ref.get("routing.forced_routes", 0), (src, dst)
            assert taken == forced_pair(net, src, dst), (src, dst)
            forced += taken
    return forced


def _indexed_pairs(net, graph, call_index: int) -> int:
    """All-pairs identity for OIHSA's search on state from an OIHSA run."""
    captured = _capture(
        oihsa_mod, "_dijkstra_indexed",
        lambda: OIHSAScheduler().schedule(graph, net), call_index,
    )
    queues, ready, cost = captured if captured else ({}, 0.0, 10.0)
    lstate = LinkScheduleState()
    lstate._queues = queues
    sched = OIHSAScheduler()
    sched._lstate = lstate
    return _assert_all_pairs_match(
        net, sched, ready, cost,
        lambda src, dst: naive_dijkstra_indexed(net, src, dst, ready, cost, queues),
    )


def _fluid_pairs(net, graph, call_index: int) -> int:
    """All-pairs identity for BBSA's search on state from a BBSA run."""
    captured = _capture(
        bbsa_mod, "_dijkstra_fluid",
        lambda: BBSAScheduler().schedule(graph, net), call_index,
    )
    profiles, ready, cost = captured if captured else ({}, 0.0, 10.0)
    sched = BBSAScheduler()
    sched._bstate = BandwidthLinkState(_profiles=profiles)
    return _assert_all_pairs_match(
        net, sched, ready, cost,
        lambda src, dst: naive_dijkstra_fluid(
            net, src, dst, ready, cost, profiles, cost <= _FEPS
        ),
    )


#: (builder, ordered processor pairs whose route is forced)
FORCED_CASES = {
    # must fire
    "switched-cluster": (lambda: switched_cluster(4, rng=5, link_speed=(1, 4)), 12),
    "leaf-spine": (lambda: two_leaves(5), 12),
    "linear-array-middle": (lambda: linear_array(3, rng=5, link_speed=(1, 4)), 2),
    "half-duplex-star": (lambda: half_duplex_star(3, 5), 6),
    # must not fire (the parallel-cable processor's pairs, every bus pair)
    "two-uplinks": (lambda: dual_homed(5), 0),
    "parallel-cables": (lambda: parallel_cables(5), 2),
    "bus-3": (lambda: shared_bus(3, rng=5), 0),
    "bus-4": (lambda: shared_bus(4, rng=5), 0),
}


class TestPrunedMatchesNaive:
    @ROUTES
    @given(net=topologies, graph=graphs, call_index=st.integers(0, 40))
    def test_indexed_probe(self, net, graph, call_index):
        _indexed_pairs(net, graph, call_index)

    @ROUTES
    @given(net=topologies, graph=graphs, call_index=st.integers(0, 40))
    def test_fluid_probe(self, net, graph, call_index):
        _fluid_pairs(net, graph, call_index)

    @pytest.mark.parametrize("probe", [_indexed_pairs, _fluid_pairs], ids=["indexed", "fluid"])
    @pytest.mark.parametrize("case", sorted(FORCED_CASES))
    @pytest.mark.parametrize("call_index", [0, 12])
    def test_forced_routes_only_where_forced(self, probe, case, call_index):
        build, forced = FORCED_CASES[case]
        graph = random_layered_dag(14, rng=call_index + 3, density=0.4)
        assert probe(build(), graph, call_index) == forced

    def test_unsound_fluid_bound_regression(self):
        """The fluid sweep may stop up to ``_FEPS / speed`` before
        ``d + cost / speed``: pruning on that bound kept the later of two
        arrivals here."""
        net = NetworkTopology()
        p0, p1 = (net.add_processor().vid for _ in range(2))
        s0, s1 = (net.add_switch().vid for _ in range(2))
        for a, b in [(p0, s0), (p0, s1), (s0, p1), (s1, p1)]:
            net.connect(a, b)  # links 0-7 in that order
        profiles = {
            4: BandwidthProfile([(1.9999999995, 5.0, 1.0)]),
            6: BandwidthProfile([(1.9999999993, 5.0, 1.0)]),
        }
        expected = naive_dijkstra_fluid(net, p0, p1, 0.0, 1.0, profiles, False)
        assert [l.lid for l in expected] == [2, 6]
        route = bbsa_mod._dijkstra_fluid(net, p0, p1, 0.0, 1.0, profiles, False)
        assert route == expected


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
