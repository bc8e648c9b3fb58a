"""Unit tests for repro.linksched.bandwidth (BBSA's fluid link model)."""

import gc
import math
from array import array

import pytest

from repro.core.bbsa import BBSAScheduler
from repro.exceptions import SchedulingError
from repro.linksched import bandwidth
from repro.linksched.bandwidth import (
    BandwidthLinkState,
    BandwidthProfile,
    Cumulative,
    UsageSegment,
    forward_through_link,
)
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.network.builders import linear_array
from repro.network.routing import bfs_route


class TestCumulative:
    def test_step(self):
        c = Cumulative.step(5.0, 10.0)
        assert c.start_time == 5.0
        assert c.final_volume == 10.0
        assert c.finish_time() == 5.0

    def test_value_interpolates(self):
        c = Cumulative([(0.0, 0.0), (10.0, 20.0)])
        assert c.value(5.0) == 10.0
        assert c.value(-1.0) == 0.0
        assert c.value(11.0) == 20.0

    def test_value_right_continuous_at_jump(self):
        c = Cumulative([(5.0, 0.0), (5.0, 10.0), (6.0, 12.0)])
        assert c.value(5.0) == 10.0

    def test_monotonicity_enforced(self):
        with pytest.raises(SchedulingError):
            Cumulative([(0.0, 5.0), (1.0, 3.0)])
        with pytest.raises(SchedulingError):
            Cumulative([(1.0, 0.0), (0.0, 1.0)])

    def test_needs_points(self):
        with pytest.raises(SchedulingError):
            Cumulative([])

    def test_negative_volume_rejected(self):
        with pytest.raises(SchedulingError):
            Cumulative.step(0.0, -1.0)

    def test_finish_time_of_ramp(self):
        c = Cumulative([(0.0, 0.0), (4.0, 8.0), (9.0, 8.0)])
        assert c.finish_time() == 4.0

    def test_constructor_copies_its_input(self):
        points = [(0.0, 0.0), (2.0, 4.0)]
        c = Cumulative(points)
        # Neither change may reach the curve: the second would have failed
        # the monotonicity check at construction.
        points[1] = (3.0, 6.0)
        points.append((1.0, 1.0))
        assert c.points == [(0.0, 0.0), (2.0, 4.0)]
        assert c.value(1.0) == 2.0
        assert c.finish_time() == 2.0

    def test_views_are_copies(self):
        c = Cumulative([(0.0, 0.0), (2.0, 4.0)])
        c.points.append((1.0, 1.0))
        c.flat().append(9.0)
        assert c.points == [(0.0, 0.0), (2.0, 4.0)]
        assert c.flat() == [0.0, 0.0, 2.0, 4.0]


def _held(obj):
    """The objects ``obj`` refers to, bar its type."""
    return [r for r in gc.get_referents(obj) if not isinstance(r, type)]


class TestCompactStorage:
    """A booked schedule keeps its breakpoints and usage as flat doubles."""

    def test_no_object_per_breakpoint(self, fork8, wan16):
        s = BBSAScheduler().schedule(fork8, wan16)
        state = s.bandwidth_state
        hops = [b for e in fork8.edges() for b in state.bookings_of(e.key)]
        assert max(len(state.route_of(e.key)) for e in fork8.edges()) >= 2
        for b in hops:
            for curve in (b.arrival, b.departure):
                (storage,) = _held(curve)
                assert isinstance(storage, array) and storage.typecode == "d"
                assert _held(storage) == []
                assert curve.points == list(zip(storage[0::2], storage[1::2]))
                assert len(storage) == 2 * len(curve.points)
            assert b.spans.typecode == "d" and _held(b.spans) == []
            assert b.usage == tuple(
                UsageSegment(*b.spans[i : i + 3]) for i in range(0, len(b.spans), 3)
            )
            assert len(b.usage) >= 1

    @pytest.mark.parametrize(
        "comm", [CUT_THROUGH, CommModel(hop_delay=0.5), STORE_AND_FORWARD]
    )
    def test_every_curve_is_checked(self, fork8, wan16, monkeypatch, comm):
        # Departures, shifted copies and steps all go through the checks.
        checked = []
        real = bandwidth._curve_storage

        def spy(flat):
            checked.append(real(flat))
            return checked[-1]

        monkeypatch.setattr(bandwidth, "_curve_storage", spy)
        s = BBSAScheduler(comm=comm).schedule(fork8, wan16)
        ids = {id(storage) for storage in checked}
        for e in fork8.edges():
            for b in s.bandwidth_state.bookings_of(e.key):
                for curve in (b.arrival, b.departure):
                    (storage,) = _held(curve)
                    assert id(storage) in ids


class TestBandwidthProfile:
    def test_empty_is_free(self):
        prof = BandwidthProfile()
        assert prof.used_at(123.0) == 0.0
        assert prof.max_used() == 0.0

    def test_add_usage(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(1.0, 3.0, 0.5)])
        assert prof.used_at(2.0) == 0.5
        assert prof.used_at(0.5) == 0.0
        assert prof.used_at(3.0) == 0.0

    def test_overlapping_usage_stacks(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(0.0, 4.0, 0.5)])
        prof.add_usage([UsageSegment(2.0, 6.0, 0.25)])
        assert prof.used_at(1.0) == 0.5
        assert prof.used_at(3.0) == 0.75
        assert prof.used_at(5.0) == 0.25

    def test_overcommit_rejected(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(0.0, 2.0, 0.8)])
        with pytest.raises(SchedulingError):
            prof.add_usage([UsageSegment(1.0, 3.0, 0.3)])

    def test_adjacent_equal_segments_merge(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(0.0, 1.0, 0.5), UsageSegment(1.0, 2.0, 0.5)])
        assert prof.segments == [(0.0, 2.0, 0.5)]


class TestForward:
    def test_free_link_full_speed(self):
        dep, usage = forward_through_link(BandwidthProfile(), Cumulative.step(2.0, 10.0), 2.0)
        assert dep.finish_time() == pytest.approx(7.0)  # 10 volume at speed 2
        assert usage == [UsageSegment(2.0, 7.0, 1.0)]

    def test_zero_volume(self):
        dep, usage = forward_through_link(BandwidthProfile(), Cumulative.step(1.0, 0.0), 1.0)
        assert usage == []
        assert dep.final_volume == 0.0

    def test_partially_used_link_shares(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(0.0, 100.0, 0.5)])
        dep, usage = forward_through_link(prof, Cumulative.step(0.0, 10.0), 1.0)
        # Only half the bandwidth available: 20 time units.
        assert dep.finish_time() == pytest.approx(20.0)
        assert usage == [UsageSegment(0.0, 20.0, 0.5)]

    def test_uses_freed_capacity(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(0.0, 5.0, 1.0)])  # fully busy until t=5
        dep, usage = forward_through_link(prof, Cumulative.step(0.0, 10.0), 1.0)
        assert dep.start_time == 0.0
        assert dep.finish_time() == pytest.approx(15.0)

    def test_mixed_capacity_profile(self):
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(0.0, 4.0, 0.75)])  # quarter speed first
        dep, _ = forward_through_link(prof, Cumulative.step(0.0, 10.0), 1.0)
        # 4 time units at rate 0.25 = 1 volume; remaining 9 at full speed.
        assert dep.finish_time() == pytest.approx(13.0)

    def test_departure_never_exceeds_arrival(self):
        arrival = Cumulative([(0.0, 0.0), (10.0, 10.0)])  # trickle at rate 1
        dep, _ = forward_through_link(BandwidthProfile(), arrival, 5.0)
        for t, v in dep.points:
            assert v <= arrival.value(t) + 1e-9
        assert dep.finish_time() == pytest.approx(10.0)

    def test_trickle_then_catchup(self):
        # Slow arrival, link busy in the middle: backlog accumulates then drains.
        arrival = Cumulative([(0.0, 0.0), (10.0, 10.0)])
        prof = BandwidthProfile()
        prof.add_usage([UsageSegment(2.0, 6.0, 1.0)])
        dep, _ = forward_through_link(prof, arrival, 1.0)
        assert dep.value(6.0) == pytest.approx(2.0)  # blocked during [2, 6)
        assert dep.finish_time() == pytest.approx(14.0)

    def test_reserve_commits_usage(self):
        prof = BandwidthProfile()
        forward_through_link(prof, Cumulative.step(0.0, 4.0), 1.0, reserve=True)
        assert prof.used_at(2.0) == 1.0

    def test_bad_speed_rejected(self):
        with pytest.raises(SchedulingError):
            forward_through_link(BandwidthProfile(), Cumulative.step(0.0, 1.0), 0.0)


class TestBandwidthLinkState:
    def _route(self):
        net = linear_array(3, link_speed=2.0)
        ps = [p.vid for p in net.processors()]
        return net, bfs_route(net, ps[0], ps[2])

    def test_schedule_edge_two_hops(self):
        net, route = self._route()
        state = BandwidthLinkState()
        arrival = state.schedule_edge((0, 1), route, 10.0, 1.0)
        assert arrival == pytest.approx(6.0)  # 5 units transfer, cut-through
        bookings = state.bookings_of((0, 1))
        assert [b.lid for b in bookings] == [l.lid for l in route]

    def test_local_edge(self):
        state = BandwidthLinkState()
        assert state.schedule_edge((0, 1), [], 5.0, 3.0) == 3.0
        assert state.route_of((0, 1)) == ()

    def test_double_schedule_rejected(self):
        net, route = self._route()
        state = BandwidthLinkState()
        state.schedule_edge((0, 1), route, 1.0, 0.0)
        with pytest.raises(SchedulingError):
            state.schedule_edge((0, 1), route, 1.0, 0.0)

    def test_two_transfers_share_bandwidth(self):
        net, route = self._route()
        state = BandwidthLinkState()
        a1 = state.schedule_edge((0, 1), [route[0]], 10.0, 0.0)
        a2 = state.schedule_edge((2, 3), [route[0]], 10.0, 0.0)
        # Link fully used by the first transfer during [0, 5): the second
        # starts only when capacity frees, same as slot scheduling here.
        assert a1 == pytest.approx(5.0)
        assert a2 == pytest.approx(10.0)
        assert state.profile(route[0].lid).max_used() <= 1.0 + 1e-9

    def test_second_transfer_exploits_spare_bandwidth(self):
        net, route = self._route()
        state = BandwidthLinkState()
        # Slow trickle occupies only half of link 1's bandwidth (speed 2
        # downstream of a speed-1 bottleneck).
        slow = [l for l in net.links() if l.lid == route[0].lid][0]
        object.__setattr__(slow, "speed", 1.0)
        state.schedule_edge((0, 1), route, 10.0, 0.0)
        prof = state.profile(route[1].lid)
        assert prof.max_used() == pytest.approx(0.5)
        # A second transfer on link 1 can run concurrently in the spare half.
        a2 = state.schedule_edge((2, 3), [route[1]], 10.0, 0.0)
        assert a2 == pytest.approx(10.0)  # half bandwidth of speed-2 link

    def test_probe_does_not_commit(self):
        net, route = self._route()
        state = BandwidthLinkState()
        t = state.probe_link(route[0], 10.0, 0.0)
        assert t == pytest.approx(5.0)
        assert state.profile(route[0].lid).segments == []

    def test_negative_ready_rejected(self):
        net, route = self._route()
        with pytest.raises(SchedulingError):
            BandwidthLinkState().schedule_edge((0, 1), route, 1.0, -2.0)
