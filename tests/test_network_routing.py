"""Unit tests for route search: BFS (repro.network.routing) and OIHSA's
contention-aware Dijkstra (repro.core.oihsa._dijkstra_indexed)."""

import pytest

from repro import obs
from repro.core.oihsa import _dijkstra_indexed
from repro.exceptions import RoutingError
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.state import LinkScheduleState
from repro.network.builders import (
    fully_connected,
    linear_array,
    random_wan,
    shared_bus,
    switched_cluster,
)
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology


def _vertex_walk_ok(net, route, src, dst):
    """A route must be traversable hop by hop from src to dst."""
    from repro.linksched.causality import check_route_connectivity

    check_route_connectivity(net, tuple(l.lid for l in route), src, dst)


class TestBfs:
    def test_same_processor_empty(self, net4):
        p = net4.processors()[0].vid
        assert bfs_route(net4, p, p) == []

    def test_direct_link(self, net2):
        a, b = (p.vid for p in net2.processors())
        route = bfs_route(net2, a, b)
        assert len(route) == 1
        assert route[0].src == a and route[0].dst == b

    def test_through_switch(self, net4):
        a, b = net4.processors()[0].vid, net4.processors()[1].vid
        route = bfs_route(net4, a, b)
        assert len(route) == 2
        _vertex_walk_ok(net4, route, a, b)

    def test_linear_array_hops(self):
        net = linear_array(5)
        ps = [p.vid for p in net.processors()]
        assert len(bfs_route(net, ps[0], ps[4])) == 4

    def test_minimal_over_wan(self):
        net = random_wan(30, rng=9)
        procs = [p.vid for p in net.processors()]
        route = bfs_route(net, procs[0], procs[-1])
        _vertex_walk_ok(net, route, procs[0], procs[-1])
        assert 1 <= len(route) <= 6

    def test_bus_single_hop(self):
        net = shared_bus(4)
        a, b = net.processors()[0].vid, net.processors()[3].vid
        route = bfs_route(net, a, b)
        assert len(route) == 1
        assert route[0].kind == "bus"

    def test_endpoint_must_be_processor(self, net4):
        switch = net4.switches()[0].vid
        proc = net4.processors()[0].vid
        with pytest.raises(RoutingError):
            bfs_route(net4, switch, proc)

    def test_disconnected_raises(self):
        net = NetworkTopology()
        a = net.add_processor()
        b = net.add_processor()
        with pytest.raises(RoutingError):
            bfs_route(net, a.vid, b.vid)

    def test_deterministic(self):
        net = random_wan(20, rng=10)
        ps = [p.vid for p in net.processors()]
        r1 = [l.lid for l in bfs_route(net, ps[0], ps[10])]
        r2 = [l.lid for l in bfs_route(net, ps[0], ps[10])]
        assert r1 == r2


class TestDijkstra:
    """With no slots booked every link is idle, so a transfer of ``cost``
    takes ``cost / speed`` per link: unit links and unit cost make the
    arrival time the hop count."""

    def test_same_processor_empty(self, net4):
        p = net4.processors()[0].vid
        assert _dijkstra_indexed(net4, p, p, 0.0, 1.0, {}) == []

    def test_matches_bfs_under_uniform_cost(self):
        net = random_wan(20, rng=11)
        ps = [p.vid for p in net.processors()]
        bfs = bfs_route(net, ps[0], ps[7])
        dij = _dijkstra_indexed(net, ps[0], ps[7], 0.0, 1.0, {})
        assert len(dij) == len(bfs)

    def test_avoids_loaded_link(self):
        # Triangle: the direct a-b link is busy over [0, 10); the detour via
        # c arrives at 2, the direct link not before 11.
        net = fully_connected(3)
        a, b, c = (p.vid for p in net.processors())
        direct = [l for l, v in net.out_links(a) if v == b]
        state = LinkScheduleState()
        schedule_edge_basic(state, (9, 9), direct, 10.0, 0.0)
        route = _dijkstra_indexed(net, a, b, 0.0, 1.0, state._queues)
        assert len(route) == 2  # a -> c -> b
        assert direct[0] not in route

    def test_ready_time_threads_through(self):
        # End to end, a 4-processor linear array is searched; across the
        # middle of a 3-processor one the route is forced and not searched,
        # so its event carries no arrival.
        searched, forced = linear_array(4), linear_array(3)
        sink = obs.ListSink()
        obs.enable(sink)
        try:
            for net in (searched, forced):
                ps = [p.vid for p in net.processors()]
                _dijkstra_indexed(net, ps[0], ps[-1], 5.0, 2.0, {})
        finally:
            obs.disable()
        first, second = [e.data for e in sink.events if e.kind == "route_probed"]
        assert first["policy"] == "dijkstra"
        assert first["arrival"] == 11.0  # 5 + 2 per hop
        assert second["policy"] == "forced" and second["hops"] == 2
        assert "arrival" not in second

    def test_negative_ready_time_rejected(self, net2):
        a, b = (p.vid for p in net2.processors())
        with pytest.raises(RoutingError):
            _dijkstra_indexed(net2, a, b, -1.0, 1.0, {})

    def test_disconnected_raises(self):
        net = NetworkTopology()
        a = net.add_processor()
        b = net.add_processor()
        with pytest.raises(RoutingError):
            _dijkstra_indexed(net, a.vid, b.vid, 0.0, 1.0, {})

    def test_route_is_walkable(self):
        net = random_wan(25, rng=12)
        ps = [p.vid for p in net.processors()]
        route = _dijkstra_indexed(net, ps[2], ps[-1], 0.0, 1.5, {})
        _vertex_walk_ok(net, route, ps[2], ps[-1])

    def test_switch_endpoint_rejected(self, net4):
        switch = net4.switches()[0].vid
        proc = net4.processors()[0].vid
        with pytest.raises(RoutingError):
            _dijkstra_indexed(net4, proc, switch, 0.0, 1.0, {})


class TestRouteTable:
    """bfs_route memoizes per (src, dst) on the topology's route table."""

    def test_repeat_queries_return_cached_route(self, net4):
        a, b = net4.processors()[0].vid, net4.processors()[1].vid
        first = bfs_route(net4, a, b)
        assert bfs_route(net4, a, b) is first
        assert net4.route_table()[(a, b)] is first

    def test_directions_cached_independently(self, net4):
        a, b = net4.processors()[0].vid, net4.processors()[1].vid
        bfs_route(net4, a, b)
        bfs_route(net4, b, a)
        assert set(net4.route_table()) >= {(a, b), (b, a)}

    def test_same_vertex_not_cached(self, net4):
        p = net4.processors()[0].vid
        assert bfs_route(net4, p, p) == []
        assert (p, p) not in net4.route_table()

    def test_topology_mutation_invalidates_table(self):
        net = NetworkTopology()
        a = net.add_processor()
        b = net.add_processor()
        c = net.add_processor()
        net.connect(a, b)
        net.connect(b, c)
        stale = bfs_route(net, a.vid, c.vid)
        assert len(stale) == 2
        net.connect(a, c)  # shortcut; must not keep serving the 2-hop route
        route = bfs_route(net, a.vid, c.vid)
        assert len(route) == 1

    def test_each_mutator_invalidates(self, net2):
        a, b = (p.vid for p in net2.processors())
        for mutate in (
            lambda n: n.add_processor(),
            lambda n: n.add_switch(),
            lambda n: n.add_bus([a, b]),
            lambda n: n.connect(a, b),
        ):
            bfs_route(net2, a, b)
            structure = net2.route_structure()
            assert net2.route_table()
            mutate(net2)
            assert not net2.route_table()
            assert net2.route_structure() is not structure

    def test_table_hits_counter(self, net4):
        from repro import obs

        a, b = net4.processors()[0].vid, net4.processors()[1].vid
        obs.enable()
        obs.reset()  # the metrics registry is process-wide
        try:
            bfs_route(net4, a, b)
            miss_routes = obs.OBS.metrics.counter("routing.bfs_routes").value
            bfs_route(net4, a, b)
            assert obs.OBS.metrics.counter("routing.table_hits").value == 1
            # A table hit is not a BFS computation.
            assert obs.OBS.metrics.counter("routing.bfs_routes").value == miss_routes
        finally:
            obs.disable()
