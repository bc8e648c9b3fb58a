"""Property-based tests focused on the link engines under fuzzing.

Complements test_properties.py with adversarial inputs for the fluid
bandwidth sweep and the comm-model variants of the slot engines.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.linksched.bandwidth import (
    BandwidthProfile,
    Cumulative,
    UsageSegment,
    forward_through_link,
)
from repro.linksched.commmodel import CommModel
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.slots import check_queue_invariants
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array
from repro.network.routing import bfs_route

FAST = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def build_profile(raw: list[tuple[float, float, float]]) -> BandwidthProfile:
    """Disjoint random profile from raw (offset, length, used) triples."""
    prof = BandwidthProfile()
    cursor = 0.0
    segments = []
    for offset, length, used in sorted(raw):
        start = max(cursor, offset)
        segments.append(UsageSegment(start, start + length, min(used, 1.0)))
        cursor = start + length
    prof.add_usage(segments)
    return prof


def build_arrival(t0: float, pieces: list[tuple[float, float]], volume_cap: float) -> Cumulative:
    """Non-decreasing piecewise arrival from raw (dt, dv) pairs."""
    points = [(t0, 0.0)]
    t, v = t0, 0.0
    for dt, dv in pieces:
        t += dt
        v = min(v + dv, volume_cap)
        points.append((t, v))
    if points[-1][1] < volume_cap:
        points.append((points[-1][0], volume_cap))  # final jump to cap
    return Cumulative(points)


class TestFluidFuzz:
    @FAST
    @given(
        raw=st.lists(
            st.tuples(st.floats(0, 50), st.floats(0.1, 10), st.floats(0.1, 1.0)),
            max_size=6,
        ),
        t0=st.floats(0, 20),
        volume=st.floats(0.5, 40),
        speed=st.floats(0.5, 8),
    )
    def test_step_arrival_invariants(self, raw, t0, volume, speed):
        prof = build_profile(raw)
        before = list(prof.segments)
        arrival = Cumulative.step(t0, volume)
        dep, usage = forward_through_link(prof, arrival, speed)
        # Volume conserved, never forwarded before availability.
        assert dep.final_volume == pytest.approx(volume, rel=1e-9, abs=1e-9)
        assert dep.start_time >= t0
        # Monotone, bounded by arrival.
        for t, v in dep.points:
            assert v <= arrival.value(t) + 1e-6
        # Usage never exceeds the free capacity anywhere.
        for seg in usage:
            mid = (seg.start + seg.finish) / 2
            assert seg.fraction <= 1.0 - prof.used_at(mid) + 1e-9
        # Probe-only call must not mutate the profile.
        assert prof.segments == before

    @FAST
    @given(
        raw=st.lists(
            st.tuples(st.floats(0, 30), st.floats(0.1, 8), st.floats(0.1, 1.0)),
            max_size=5,
        ),
        t0=st.floats(0, 10),
        pieces=st.lists(
            st.tuples(st.floats(0.1, 5), st.floats(0.0, 10)), min_size=1, max_size=5
        ),
        speed=st.floats(0.5, 4),
    )
    def test_ramp_arrival_invariants(self, raw, t0, pieces, speed):
        volume = min(sum(dv for _, dv in pieces) + 1.0, 30.0)
        prof = build_profile(raw)
        arrival = build_arrival(t0, pieces, volume)
        dep, usage = forward_through_link(prof, arrival, speed, reserve=True)
        assert dep.final_volume == pytest.approx(volume, rel=1e-9, abs=1e-9)
        for t, v in dep.points:
            assert v <= arrival.value(t) + 1e-6
        assert dep.finish_time() >= arrival.finish_time() - 1e-9
        # Reserved: the profile now includes the usage, still within capacity.
        assert prof.max_used() <= 1.0 + 1e-6

    @FAST
    @given(
        volumes=st.lists(st.floats(0.5, 10), min_size=1, max_size=8),
        speed=st.floats(0.5, 4),
    )
    def test_sequential_transfers_fill_capacity(self, volumes, speed):
        """Booking several step transfers at t=0 serializes them exactly:
        total completion equals total volume / speed (full utilization)."""
        prof = BandwidthProfile()
        finish = 0.0
        for i, v in enumerate(volumes):
            dep, _ = forward_through_link(prof, Cumulative.step(0.0, v), speed, reserve=True)
            finish = max(finish, dep.finish_time())
        assert finish == pytest.approx(sum(volumes) / speed, rel=1e-6)


class TestCommModeProperties:
    plans = st.lists(
        st.tuples(st.floats(0.5, 20.0), st.floats(0.0, 20.0)),
        min_size=1,
        max_size=8,
    )
    comms = st.one_of(
        st.builds(CommModel, mode=st.just("cut-through"), hop_delay=st.floats(0, 5)),
        st.builds(CommModel, mode=st.just("store-and-forward"), hop_delay=st.floats(0, 5)),
    )

    @FAST
    @given(plans=plans, comm=comms)
    def test_optimal_never_later_than_basic_any_mode(self, plans, comm):
        """Theorem 1 is a per-insertion guarantee: on the *same* link state,
        optimal insertion never arrives later than basic insertion.  It is
        not a cross-stream guarantee — two engines fed the same edge stream
        diverge once optimal defers a slot within its causality slack, and a
        gap the basic engine left open may not exist in the optimal state
        (e.g. plans [(3,1),(1,1),(1,3),(3,0)] on a 3-node store-and-forward
        array: edge 3 arrives at 6.5 under basic, 7.0 under optimal)."""
        net = linear_array(3, link_speed=2.0)
        ps = [p.vid for p in net.processors()]
        route = bfs_route(net, ps[0], ps[2])
        state = LinkScheduleState()
        for i, (cost, ready) in enumerate(plans):
            with state.tentative():
                a_b = schedule_edge_basic(state, (i, 100 + i), route, cost, ready, comm)
            a_o = schedule_edge_optimal(state, (i, 100 + i), route, cost, ready, comm)
            assert a_o <= a_b + 1e-6
            for link in route:
                check_queue_invariants(state.slots(link.lid))

    @FAST
    @given(plans=plans, comm=comms)
    def test_causality_holds_any_mode(self, plans, comm):
        from repro.linksched.causality import check_route_causality

        net = linear_array(3)
        ps = [p.vid for p in net.processors()]
        route = bfs_route(net, ps[0], ps[2])
        state = LinkScheduleState()
        booked = {}
        for i, (cost, ready) in enumerate(plans):
            key = (i, 100 + i)
            schedule_edge_optimal(state, key, route, cost, ready, comm)
            booked[key] = (cost, ready)
        for key, (cost, ready) in booked.items():
            check_route_causality(state, net, key, cost, ready, comm=comm)

    @FAST
    @given(cost=st.floats(0.5, 20), ready=st.floats(0, 10), delay=st.floats(0, 5))
    def test_store_and_forward_dominates_cut_through(self, cost, ready, delay):
        net = linear_array(4)
        ps = [p.vid for p in net.processors()]
        route = bfs_route(net, ps[0], ps[3])
        ct = schedule_edge_basic(
            LinkScheduleState(), (0, 1), route, cost, ready, CommModel("cut-through", delay)
        )
        sf = schedule_edge_basic(
            LinkScheduleState(), (0, 1), route, cost, ready, CommModel("store-and-forward", delay)
        )
        assert sf >= ct - 1e-9
