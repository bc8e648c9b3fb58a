"""The paper's lemmas and theorems as executable checks.

Each test encodes one formal statement from Han & Wang (ICPP 2006) and
verifies the implementation satisfies it — including an independent
brute-force check of Theorem 1 (optimal insertion) against
:func:`repro.linksched.optimal_insertion.schedule_edge_optimal`.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import deferrable_time, schedule_edge_optimal
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array
from repro.network.routing import bfs_route

FAST = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def route3(speed=1.0):
    net = linear_array(3, link_speed=speed)
    ps = [p.vid for p in net.processors()]
    return net, bfs_route(net, ps[0], ps[2])


class TestLemma1:
    """t_f(e, L_{m+1}) = max(t_f(e, L_m), t_es(e, L_{m+1}) + int(e, L_{m+1}))."""

    @FAST
    @given(cost=st.floats(0.5, 30), ready=st.floats(0, 20), s2=st.floats(0.5, 8))
    def test_finish_recurrence_on_idle_links(self, cost, ready, s2):
        net, route = route3()
        object.__setattr__(route[1], "speed", s2)
        state = LinkScheduleState()
        schedule_edge_basic(state, (0, 1), route, cost, ready)
        slot1 = state.slot_of((0, 1), route[0].lid)
        slot2 = state.slot_of((0, 1), route[1].lid)
        # On idle links t_es(L2) = t_s(L1); Lemma 1's recurrence:
        expected = max(slot1.finish, slot1.start + cost / s2)
        assert slot2.finish == pytest.approx(expected)


class TestLemma2:
    """The deferral slack is exactly the slack to the next link's slot."""

    def test_slack_formula(self):
        net, route = route3()
        lid0, lid1 = route[0].lid, route[1].lid
        state = LinkScheduleState()
        edge = (0, 1)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, 2.0, 6.0))
        state.insert(lid1, 0, TimeSlot(edge, 5.0, 9.0))
        slot = state.slot_of(edge, lid0)
        assert deferrable_time(state, lid0, slot) == pytest.approx(
            min(5.0 - 2.0, 9.0 - 6.0)
        )

    def test_deferring_by_slack_keeps_causality(self):
        from repro.linksched.causality import check_route_causality

        net, route = route3()
        lid0, lid1 = route[0].lid, route[1].lid
        state = LinkScheduleState()
        edge = (0, 1)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, 2.0, 6.0))
        state.insert(lid1, 0, TimeSlot(edge, 5.0, 9.0))
        dt = deferrable_time(state, lid0, state.slot_of(edge, lid0))
        moved = TimeSlot(edge, 2.0 + dt, 6.0 + dt)
        state.replace_run(lid0, 0, 1, [moved])
        check_route_causality(state, net, edge, 4.0)

    def test_deferring_beyond_slack_breaks_causality(self):
        from repro.exceptions import ValidationError
        from repro.linksched.causality import check_route_causality

        net, route = route3()
        lid0, lid1 = route[0].lid, route[1].lid
        state = LinkScheduleState()
        edge = (0, 1)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, 2.0, 6.0))
        state.insert(lid1, 0, TimeSlot(edge, 5.0, 9.0))
        dt = deferrable_time(state, lid0, state.slot_of(edge, lid0))
        moved = TimeSlot(edge, 2.0 + dt + 0.5, 6.0 + dt + 0.5)
        state.replace_run(lid0, 0, 1, [moved])
        with pytest.raises(ValidationError):
            check_route_causality(state, net, edge, 4.0)


def brute_force_earliest_start(state, link, duration, est, min_finish):
    """Independent check of Theorem 1: earliest feasible start by direct
    simulation of every insertion position and its deferral cascade."""
    slots = state.slots(link.lid)
    best = None
    for pos in range(len(slots) + 1):
        prev_finish = slots[pos - 1].finish if pos > 0 else 0.0
        start = max(prev_finish, est, min_finish - duration)
        finish = start + duration
        # Cascade: push slots[pos:] and verify each stays within its slack.
        feasible = True
        cursor = finish
        for s in slots[pos:]:
            if s.start >= cursor:
                break
            delta = cursor - s.start
            if delta > deferrable_time(state, link.lid, s) + 1e-9:
                feasible = False
                break
            cursor = s.finish + delta
        if feasible and (best is None or start < best):
            best = start
    return best


def booked_start(state, link, edge, cost, est):
    """Book ``edge`` on the one-link route ``[link]``; its slot's start."""
    schedule_edge_optimal(state, edge, [link], cost, est)
    return state.slot_of(edge, link.lid).start


class TestTheorem1:
    """Optimal insertion finds the earliest feasible start."""

    @FAST
    @given(
        plans=st.lists(
            st.tuples(st.floats(0.5, 15.0), st.floats(0.0, 25.0)),
            min_size=1,
            max_size=60,
        ),
        new_cost=st.floats(0.5, 12.0),
        new_est=st.floats(0.0, 30.0),
    )
    def test_matches_brute_force(self, plans, new_cost, new_est):
        # Up to 60 queued slots, most of them ending far beyond ``new_est``,
        # so the scan's early stop runs.
        net, route = route3()
        state = LinkScheduleState()
        for i, (cost, ready) in enumerate(plans):
            schedule_edge_optimal(state, (i, 100 + i), route, cost, ready)
        link = route[0]
        expected = brute_force_earliest_start(
            state, link, new_cost / link.speed, new_est, 0.0
        )
        start = booked_start(state, link, (999, 999), new_cost, new_est)
        assert start == pytest.approx(expected)

    def test_example_from_construction(self):
        # Hand-built queue where only deferral opens the early gap.
        net, route = route3()
        lid0, lid1 = route[0].lid, route[1].lid
        state = LinkScheduleState()
        edge = (9, 9)
        state.record_route(edge, (lid0, lid1))
        state.insert(lid0, 0, TimeSlot(edge, 0.0, 5.0))
        state.insert(lid1, 0, TimeSlot(edge, 20.0, 25.0))  # 20 units of slack
        start = booked_start(state, route[0], (1, 2), 4.0, est=0.0)
        assert start == 0.0  # basic insertion would start at 5.0
        assert [s.edge for s in state.slots(lid0)] == [(1, 2), edge]


class TestTheorems3and4:
    """BBSA's bandwidth sharing never violates cut-through causality."""

    @FAST
    @given(
        volumes=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=6),
        s1=st.floats(0.5, 4.0),
        s2=st.floats(0.5, 4.0),
    )
    def test_downstream_never_outruns_upstream(self, volumes, s1, s2):
        from repro.linksched.bandwidth import BandwidthLinkState

        net, route = route3()
        object.__setattr__(route[0], "speed", s1)
        object.__setattr__(route[1], "speed", s2)
        state = BandwidthLinkState()
        for i, v in enumerate(volumes):
            state.schedule_edge((i, 100 + i), route, v, 0.0)
            first, second = state.bookings_of((i, 100 + i))
            # Theorem 3: at every instant the volume sent on link 2 is at
            # most the volume received from link 1.
            for t, fwd in second.departure.points:
                assert fwd <= first.departure.value(t) + 1e-6
