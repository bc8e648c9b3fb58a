"""Unit tests for repro.linksched.optimal_insertion (OIHSA's deferral)."""

import pytest

from repro.exceptions import SchedulingError
from repro.linksched.causality import check_route_causality
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import deferrable_time, schedule_edge_optimal
from repro.linksched.slots import TimeSlot, check_queue_invariants
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array
from repro.network.routing import bfs_route


def three_procs(link_speed=1.0):
    net = linear_array(3, link_speed=link_speed)
    ps = [p.vid for p in net.processors()]
    return net, ps


class TestDeferrableTime:
    def test_zero_on_last_link(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        state = LinkScheduleState()
        schedule_edge_basic(state, (0, 1), route, 10.0, 0.0)
        last_slot = state.slot_of((0, 1), route[-1].lid)
        assert deferrable_time(state, route[-1].lid, last_slot) == 0.0

    def test_slack_from_next_link(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        state = LinkScheduleState()
        # Edge A occupies the second link at [0, 10); edge B routed after it
        # lands at [10, 20) there, so B's first-link slot [0, 10) has 10 of slack.
        schedule_edge_basic(state, (9, 9), [route[1]], 10.0, 0.0)
        schedule_edge_basic(state, (0, 1), route, 10.0, 0.0)
        first_slot = state.slot_of((0, 1), route[0].lid)
        assert first_slot.start == 0.0
        assert deferrable_time(state, route[0].lid, first_slot) == 10.0


def placement(state, lid, edge):
    """``(index, start, finish)`` of ``edge``'s slot in link ``lid``'s queue."""
    slots = state.slots(lid)
    index = [s.edge for s in slots].index(edge)
    return index, slots[index].start, slots[index].finish


class TestProbeOptimal:
    """Where the per-link scan places a new slot, read back from the queue."""

    def test_empty_link_matches_basic(self):
        net, ps = three_procs(link_speed=2.0)
        route = bfs_route(net, ps[0], ps[1])
        state = LinkScheduleState()
        schedule_edge_optimal(state, (1, 2), route, 10.0, 3.0)
        assert placement(state, route[0].lid, (1, 2)) == (0, 3.0, 8.0)
        assert len(state.slots(route[0].lid)) == 1

    def test_min_finish_respected(self):
        # The first link (speed 0.25) finishes the transfer at 16, so on the
        # second it may not finish earlier: it starts at 16 - 4, not at 0.
        net = linear_array(3, link_speed=iter([0.25, 1.0]).__next__)
        ps = [p.vid for p in net.processors()]
        route = bfs_route(net, ps[0], ps[2])
        state = LinkScheduleState()
        assert schedule_edge_optimal(state, (1, 2), route, 4.0, 0.0) == 16.0
        assert placement(state, route[0].lid, (1, 2)) == (0, 0.0, 16.0)
        assert placement(state, route[1].lid, (1, 2)) == (0, 12.0, 16.0)

    def test_negative_cost_rejected(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[1])
        with pytest.raises(SchedulingError):
            schedule_edge_optimal(LinkScheduleState(), (1, 2), route, -2.0, 0.0)

    def test_defers_blocking_slot(self):
        net, ps = three_procs()
        route02 = bfs_route(net, ps[0], ps[2])
        lid0 = route02[0].lid
        state = LinkScheduleState()
        # Give the first link a deferrable occupant: edge A's slot on link 0
        # is [0, 10) but its next-link slot is at [20, 30) -> slack 20.
        schedule_edge_basic(state, (9, 9), [route02[1]], 10.0, 20.0)
        state.record_route((5, 5), (lid0, route02[1].lid))
        state.insert(lid0, 0, TimeSlot((5, 5), 0.0, 10.0))
        state.insert(route02[1].lid, 1, TimeSlot((5, 5), 30.0, 40.0))
        # New 6-long transfer with est=0: basic insertion would append at 10,
        # optimal insertion defers (5,5) by the overflow 6 and starts at 0.
        schedule_edge_optimal(state, (1, 2), [route02[0]], 6.0, 0.0)
        assert placement(state, lid0, (1, 2)) == (0, 0.0, 6.0)
        assert placement(state, lid0, (5, 5)) == (1, 6.0, 16.0)


class TestScheduleEdgeOptimal:
    def test_local_edge(self):
        state = LinkScheduleState()
        assert schedule_edge_optimal(state, (0, 1), [], 5.0, 2.0) == 2.0

    def test_matches_basic_on_empty_links(self):
        net, ps = three_procs(link_speed=2.0)
        route = bfs_route(net, ps[0], ps[2])
        s1, s2 = LinkScheduleState(), LinkScheduleState()
        a_basic = schedule_edge_basic(s1, (0, 1), route, 12.0, 1.0)
        a_opt = schedule_edge_optimal(s2, (0, 1), route, 12.0, 1.0)
        assert a_opt == a_basic

    def test_never_later_than_basic(self):
        # Optimal insertion dominates basic insertion slot-for-slot.
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        for seed_costs in ([7, 3, 9], [2, 2, 2], [10, 1, 5]):
            s_basic, s_opt = LinkScheduleState(), LinkScheduleState()
            for i, cost in enumerate(seed_costs):
                schedule_edge_basic(s_basic, (i, 10 + i), route, cost, float(i))
                schedule_edge_optimal(s_opt, (i, 10 + i), route, cost, float(i))
            last = (len(seed_costs) - 1, 10 + len(seed_costs) - 1)
            b = s_basic.slot_of(last, route[-1].lid).finish
            o = s_opt.slot_of(last, route[-1].lid).finish
            assert o <= b + 1e-9

    def test_deferral_preserves_causality_of_deferred_edge(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        state = LinkScheduleState()
        # Edge A across both links, arrives late on second link.
        schedule_edge_basic(state, (9, 9), [route[1]], 10.0, 20.0)  # blocker
        schedule_edge_optimal(state, (0, 1), route, 10.0, 0.0)
        # New big transfer on link 0 only: may defer (0, 1)'s first-hop slot.
        ps01 = bfs_route(net, ps[0], ps[1])
        schedule_edge_optimal(state, (2, 3), ps01, 8.0, 0.0)
        check_route_causality(state, net, (0, 1), 10.0, 0.0)
        check_queue_invariants(state.slots(route[0].lid))

    def test_cascade_defers_multiple_slots(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        lid0, lid1 = route[0].lid, route[1].lid

        state = LinkScheduleState()
        # Two occupants back-to-back on link 0, each with ample slack on link 1.
        for i, (a, b) in enumerate([(0.0, 4.0), (4.0, 8.0)]):
            edge = (20 + i, 30 + i)
            state.record_route(edge, (lid0, lid1))
            state.insert(lid0, i, TimeSlot(edge, a, b))
            state.insert(lid1, i, TimeSlot(edge, a + 50.0, b + 50.0))
        arrival = schedule_edge_optimal(state, (0, 1), [route[0]], 3.0, 0.0)
        assert arrival == 3.0  # inserted at the head, both occupants pushed
        slots = state.slots(lid0)
        assert [s.edge for s in slots] == [(0, 1), (20, 30), (21, 31)]
        assert [(s.start, s.finish) for s in slots] == [(0.0, 3.0), (3.0, 7.0), (7.0, 11.0)]
        check_queue_invariants(slots)

    def test_cascade_stops_at_gap(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        lid0, lid1 = route[0].lid, route[1].lid

        state = LinkScheduleState()
        # Occupant 1 at [0, 4) with slack, occupant 2 far away at [100, 104).
        for i, (a, b) in enumerate([(0.0, 4.0), (100.0, 104.0)]):
            edge = (20 + i, 30 + i)
            state.record_route(edge, (lid0, lid1))
            state.insert(lid0, i, TimeSlot(edge, a, b))
            state.insert(lid1, i, TimeSlot(edge, a + 50.0, b + 50.0))
        schedule_edge_optimal(state, (0, 1), [route[0]], 3.0, 0.0)
        slots = state.slots(lid0)
        assert (slots[2].start, slots[2].finish) == (100.0, 104.0)  # untouched

    def test_does_not_defer_beyond_slack(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        lid0, lid1 = route[0].lid, route[1].lid

        state = LinkScheduleState()
        # Occupant [0, 4) has exactly 2 units of slack: its next-link slot is
        # [2, 6), so it may slip to at most [2, 6) itself.
        edge = (9, 9)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, 0.0, 4.0))
        state.insert(lid1, 0, TimeSlot(edge, 2.0, 6.0))
        # A 3-long transfer cannot open a head gap (needs 3 > slack 2):
        # it must go after the occupant.
        arrival = schedule_edge_optimal(state, (0, 1), [route[0]], 3.0, 0.0)
        assert arrival == 7.0
        assert state.slot_of(edge, lid0).start == 0.0  # occupant untouched

    def test_defers_exactly_the_slack(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        lid0, lid1 = route[0].lid, route[1].lid

        state = LinkScheduleState()
        edge = (9, 9)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, 0.0, 4.0))
        state.insert(lid1, 0, TimeSlot(edge, 2.0, 6.0))
        # A 2-long transfer fits by deferring the occupant by its full slack.
        arrival = schedule_edge_optimal(state, (2, 3), [route[0]], 2.0, 0.0)
        assert arrival == 2.0
        occ = state.slot_of(edge, lid0)
        assert occ.start == 2.0  # deferred onto its next-link start exactly
        check_route_causality(state, net, edge, 4.0)
        # Its slack is now exhausted: a further transfer must append.
        arrival2 = schedule_edge_optimal(state, (4, 5), [route[0]], 1.0, 0.0)
        assert arrival2 == 7.0

    def test_finish_overrunning_unpushed_successor_is_clipped(self):
        # With this hop delay, edge 2's last-link finish rounds one ulp past
        # the start of edge 0's slot, which it abuts in exact arithmetic, and
        # the cascade stops there.  Edge 2's slot is clipped to end where
        # edge 0's begins; edge 0 does not move and edge 2 arrives as computed.
        from repro.linksched.commmodel import CommModel

        net, ps = three_procs(link_speed=2.0)
        route = bfs_route(net, ps[0], ps[2])
        comm = CommModel(mode="cut-through", hop_delay=3.479165988789807)
        plans = [(1.0, 13.0), (6.0, 0.0), (20.0, 0.0)]
        state = LinkScheduleState()
        arrivals = [
            schedule_edge_optimal(state, (i, 100 + i), route, cost, ready, comm)
            for i, (cost, ready) in enumerate(plans)
        ]
        last = state.slots(route[-1].lid)
        assert [s.edge for s in last] == [(1, 101), (2, 102), (0, 100)]
        assert last[2] == TimeSlot((0, 100), 16.479165988789806, 16.979165988789806)
        assert last[1].finish == last[2].start
        assert arrivals[2] == 16.47916598878981
        for link in route:
            check_queue_invariants(state.slots(link.lid))
        for i, (cost, ready) in enumerate(plans):
            check_route_causality(state, net, (i, 100 + i), cost, ready, comm=comm)

    def test_pushed_start_rounding_below_predecessor_is_clipped(self):
        net, ps = three_procs()
        route = bfs_route(net, ps[0], ps[2])
        lid0, lid1 = route[0].lid, route[1].lid
        # Pushing the occupant by ``finish - start`` puts it at
        # ``start + (finish - start)``, which rounds one ulp below ``finish``.
        start, finish = 41.968035129700695, 633.5786517456671
        assert start + (finish - start) < finish

        state = LinkScheduleState()
        edge = (9, 9)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, start, start + 4.0))
        state.insert(lid1, 0, TimeSlot(edge, start + 1000.0, start + 1004.0))
        arrival = schedule_edge_optimal(state, (0, 1), [route[0]], finish, 0.0)
        assert arrival == finish
        new, occ = state.slots(lid0)
        assert occ.start == start + (finish - start)
        assert new.finish == occ.start
        check_queue_invariants(state.slots(lid0))
        check_route_causality(state, net, edge, 4.0)
