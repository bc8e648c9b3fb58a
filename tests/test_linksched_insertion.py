"""Unit tests for repro.linksched.insertion (basic insertion / BA engine)."""

import pytest

from repro.exceptions import SchedulingError
from repro.linksched.causality import check_route_causality
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array


def two_hop():
    """Linear 3-processor array: P0 -L?- P1 -L?- P2; return net + route."""
    net = linear_array(3, link_speed=2.0)
    from repro.network.routing import bfs_route

    ps = [p.vid for p in net.processors()]
    return net, bfs_route(net, ps[0], ps[2])


class TestScheduleEdgeBasic:
    def test_negative_cost_rejected(self):
        net, route = two_hop()
        with pytest.raises(SchedulingError):
            schedule_edge_basic(LinkScheduleState(), (0, 1), route, -1.0, 0.0)

    def test_empty_route_is_local(self):
        state = LinkScheduleState()
        assert schedule_edge_basic(state, (0, 1), [], 100.0, 7.0) == 7.0
        assert state.route_of((0, 1)) == ()

    def test_zero_cost_occupies_nothing(self):
        net, route = two_hop()
        state = LinkScheduleState()
        assert schedule_edge_basic(state, (0, 1), route, 0.0, 3.0) == 3.0
        assert state.slots(route[0].lid) == []

    def test_single_edge_two_hops(self):
        net, route = two_hop()
        state = LinkScheduleState()
        arrival = schedule_edge_basic(state, (0, 1), route, 10.0, 1.0)
        # Cut-through: both 5-long transfers overlap; arrival = 1 + 5 + 0 (the
        # second hop finishes no earlier than the first).
        s0 = state.slot_of((0, 1), route[0].lid)
        s1 = state.slot_of((0, 1), route[1].lid)
        assert s0.start == 1.0 and s0.finish == 6.0
        assert s1.finish == arrival == 6.0
        check_route_causality(state, net, (0, 1), 10.0, 1.0)

    def test_contention_serializes(self):
        net, route = two_hop()
        state = LinkScheduleState()
        a1 = schedule_edge_basic(state, (0, 1), route, 10.0, 0.0)
        a2 = schedule_edge_basic(state, (2, 3), route, 10.0, 0.0)
        assert a2 >= a1 + 5.0 - 1e-9  # second transfer waits for the link

    def test_small_edge_fills_gap(self):
        net, route = two_hop()
        lid = route[0].lid
        state = LinkScheduleState()
        # Occupy [10, 20) manually; a 2-long transfer fits before it.
        state.record_route((9, 9), (lid,))
        state.insert(lid, 0, TimeSlot((9, 9), 10.0, 20.0))
        arrival = schedule_edge_basic(state, (0, 1), [route[0]], 4.0, 0.0)
        assert arrival == 2.0

    def test_causality_on_slow_then_fast(self):
        # First link slow (speed 1), second fast (speed 4): the fast slot is
        # squeezed to the tail of the slow one (virtual start).
        net = linear_array(3, link_speed=lambda: 1.0)
        from repro.network.routing import bfs_route

        ps = [p.vid for p in net.processors()]
        route = bfs_route(net, ps[0], ps[2])
        fast = [l for l in net.links() if l.lid == route[1].lid][0]
        object.__setattr__(fast, "speed", 4.0)  # heterogeneous second hop
        state = LinkScheduleState()
        arrival = schedule_edge_basic(state, (0, 1), route, 8.0, 0.0)
        s0 = state.slot_of((0, 1), route[0].lid)
        s1 = state.slot_of((0, 1), route[1].lid)
        assert s0.finish == 8.0
        assert s1.duration == 2.0
        assert s1.finish == arrival == 8.0  # cannot finish before the slow hop
        assert s1.start == 6.0  # virtual start = finish - duration
        check_route_causality(state, net, (0, 1), 8.0, 0.0)

    def test_fast_then_slow_extends(self):
        net = linear_array(3, link_speed=lambda: 4.0)
        from repro.network.routing import bfs_route

        ps = [p.vid for p in net.processors()]
        route = bfs_route(net, ps[0], ps[2])
        slow = [l for l in net.links() if l.lid == route[1].lid][0]
        object.__setattr__(slow, "speed", 1.0)
        state = LinkScheduleState()
        arrival = schedule_edge_basic(state, (0, 1), route, 8.0, 0.0)
        assert arrival == 8.0  # dominated by the slow hop
        check_route_causality(state, net, (0, 1), 8.0, 0.0)

    def test_negative_ready_rejected(self):
        net, route = two_hop()
        with pytest.raises(SchedulingError):
            schedule_edge_basic(LinkScheduleState(), (0, 1), route, 1.0, -1.0)
