"""Tests for repro.core.validate: valid schedules pass, corrupted ones fail."""

import dataclasses

import pytest

from repro.core.ba import BAScheduler
from repro.core.bbsa import BBSAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.core.validate import validate_schedule
from repro.exceptions import ValidationError
from repro.procsched.state import TaskPlacement


@pytest.fixture
def schedule(diamond4, wan16):
    return BAScheduler().schedule(diamond4, wan16)


def corrupt_placement(schedule, tid, **changes):
    pl = schedule.placements[tid]
    schedule.placements[tid] = dataclasses.replace(pl, **changes)


class TestPlacementChecks:
    def test_valid_passes(self, schedule):
        validate_schedule(schedule)

    def test_missing_task_detected(self, schedule):
        del schedule.placements[0]
        with pytest.raises(ValidationError, match="not placed"):
            validate_schedule(schedule)

    def test_unknown_task_detected(self, schedule):
        schedule.placements[99] = TaskPlacement(99, 0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="unknown"):
            validate_schedule(schedule)

    def test_wrong_duration_detected(self, schedule):
        pl = schedule.placements[0]
        corrupt_placement(schedule, 0, finish=pl.finish + 5.0)
        with pytest.raises(ValidationError):
            validate_schedule(schedule)

    def test_non_processor_detected(self, schedule, wan16):
        switch = wan16.switches()[0].vid
        pl = schedule.placements[0]
        corrupt_placement(schedule, 0, processor=switch)
        with pytest.raises(ValidationError, match="non-processor"):
            validate_schedule(schedule)

    def test_processor_overlap_detected(self, diamond4, net4):
        s = BAScheduler().schedule(diamond4, net4)
        # Move every task to processor 0 at time 0 — guaranteed overlaps.
        for tid in list(s.placements):
            pl = s.placements[tid]
            corrupt_placement(s, tid, processor=net4.processors()[0].vid, start=0.0,
                              finish=pl.finish - pl.start)
        with pytest.raises(ValidationError):
            validate_schedule(s)


class TestEdgeChecks:
    def test_missing_arrival_detected(self, schedule):
        key = next(iter(schedule.edge_arrivals))
        del schedule.edge_arrivals[key]
        with pytest.raises(ValidationError, match="no recorded arrival"):
            validate_schedule(schedule)

    def test_arrival_before_source_detected(self, schedule):
        key = next(iter(schedule.edge_arrivals))
        schedule.edge_arrivals[key] = -1.0
        with pytest.raises(ValidationError):
            validate_schedule(schedule)

    def test_start_before_arrival_detected(self, schedule):
        # Push an edge's arrival way past its destination's start.
        for e in schedule.graph.edges():
            dst = schedule.placements[e.dst]
            schedule.edge_arrivals[e.key] = dst.start + 100.0
            break
        with pytest.raises(ValidationError):
            validate_schedule(schedule)


class TestLinkChecks:
    def test_slot_overlap_detected(self, schedule):
        state = schedule.link_state
        lid = next(l for l in state.used_links() if len(state.slots(l)) >= 1)
        slot = state.slots(lid)[0]
        # Inject an overlapping duplicate slot via the raw queue.
        from repro.linksched.slots import TimeSlot

        q = state._queues[lid]
        q.slots.append(TimeSlot((98, 99), slot.start, slot.finish + 1.0))
        q.slots.sort(key=lambda s: s.start)
        with pytest.raises(ValidationError):
            validate_schedule(schedule)

    def test_causality_violation_detected(self, fork8, wan16):
        s = OIHSAScheduler().schedule(fork8, wan16)
        state = s.link_state
        # Find a cross-processor edge with a >= 2 link route and shift its
        # first slot after its second.
        for e in fork8.edges():
            route = state.route_of(e.key) if state.has_route(e.key) else ()
            if len(route) >= 2:
                from repro.linksched.slots import TimeSlot

                first = state.slot_of(e.key, route[0])
                q = state._queues[route[0]]
                moved = TimeSlot(e.key, first.start + 1e6, first.finish + 1e6)
                q.slots[q.slots.index(first)] = moved
                q.by_edge[e.key] = moved
                with pytest.raises(ValidationError):
                    validate_schedule(s)
                return
        pytest.skip("no multi-hop edge in this schedule")


class TestBandwidthChecks:
    def test_valid_bbsa_passes(self, fork8, wan16):
        validate_schedule(BBSAScheduler().schedule(fork8, wan16))

    @staticmethod
    def _used_links_in_edge_order(graph, state):
        order: list[int] = []
        for e in graph.edges():
            for b in state.bookings_of(e.key):
                if b.lid not in order:
                    order.append(b.lid)
        return order

    @staticmethod
    def _overcommit(state, lid):
        prof = state.profile(lid)
        end = prof.segments[-1][1]
        prof.segments = [*prof.segments, (end + 1.0, end + 2.0, 1.5)]

    def test_overcommit_detected_on_every_used_link(self, fork8, wan16):
        order = self._used_links_in_edge_order(
            fork8, BBSAScheduler().schedule(fork8, wan16).bandwidth_state
        )
        assert len(order) > 2
        for lid in order:
            s = BBSAScheduler().schedule(fork8, wan16)
            self._overcommit(s.bandwidth_state, lid)
            with pytest.raises(ValidationError, match=rf"^link {lid} over-committed"):
                validate_schedule(s)

    def test_overcommit_reports_first_link_in_edge_order(self, fork8, wan16):
        s = BBSAScheduler().schedule(fork8, wan16)
        state = s.bandwidth_state
        order = self._used_links_in_edge_order(fork8, state)
        self._overcommit(state, order[-1])
        self._overcommit(state, order[1])
        with pytest.raises(ValidationError, match=rf"^link {order[1]} over-committed"):
            validate_schedule(s)

    def test_volume_loss_detected(self, fork8, wan16):
        s = BBSAScheduler().schedule(fork8, wan16)
        state = s.bandwidth_state
        for e in fork8.edges():
            bookings = state.bookings_of(e.key)
            if bookings:
                import dataclasses as dc

                from repro.linksched.bandwidth import Cumulative

                b = bookings[-1]
                truncated = dc.replace(
                    b,
                    departure=Cumulative([(b.departure.start_time, 0.0)]),
                )
                state._bookings[e.key][-1] = truncated
                with pytest.raises(ValidationError):
                    validate_schedule(s)
                return
        pytest.skip("no cross-processor edge")
