"""Tests for repro.core.validate: valid schedules pass, corrupted ones fail."""

import dataclasses

import pytest

from repro.core.ba import BAScheduler
from repro.core.bbsa import BBSAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.core.validate import validate_schedule
from repro.exceptions import ValidationError
from repro.linksched.bandwidth import Cumulative
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
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


class TestBandwidthBookingChecks:
    """One tampered booking per per-edge check of the BBSA validation.

    Each test breaks one invariant on one edge and expects that check's
    exact message, so a pointer that lands on the wrong curve piece (and so
    reports another arrived volume, or the wrong breakpoint) fails.
    """

    @staticmethod
    def _routed_edge(schedule, min_hops=1):
        state = schedule.bandwidth_state
        for e in schedule.graph.edges():
            if state.has_route(e.key) and len(state.route_of(e.key)) >= min_hops:
                return e
        pytest.skip(f"no edge with {min_hops}+ hops in this schedule")

    @staticmethod
    def _tamper(schedule, edge, hop, **changes):
        bookings = schedule.bandwidth_state._bookings[edge.key]
        bookings[hop] = dataclasses.replace(bookings[hop], **changes)
        return bookings[hop]

    @staticmethod
    def _expect(schedule, message):
        with pytest.raises(ValidationError) as exc:
            validate_schedule(schedule)
        assert str(exc.value) == message

    def test_bookings_not_matching_route(self, fork8, wan16):
        s = BBSAScheduler().schedule(fork8, wan16)
        e = self._routed_edge(s, min_hops=2)
        bookings = s.bandwidth_state._bookings[e.key]
        bookings.reverse()
        self._expect(
            s,
            f"edge {e.key}: bookings {[b.lid for b in bookings]} do not match "
            f"route {s.bandwidth_state.route_of(e.key)}",
        )

    @pytest.mark.parametrize("where", ["first", "middle", "last", "jump"])
    def test_departure_outrunning_arrival(self, fork8, wan16, where):
        s = BBSAScheduler().schedule(fork8, wan16)
        e = self._routed_edge(s)
        c = e.cost
        r = s.bandwidth_state.bookings_of(e.key)[0].departure.start_time
        t1, t2, t3, t4 = r + 1.0, r + 2.0, r + 3.0, r + 4.0
        # A ramp, a flat stretch, a jump at t2 from c/4 to 3c/4, a ramp.
        arrival = Cumulative(
            [(r, 0.0), (t1, c / 4), (t2, c / 4), (t2, 3 * c / 4), (t4, c)]
        )
        # Each departure first outruns the arrival at the marked breakpoint.
        departure, (t, v) = {
            "first": ([(r, c / 8), (t1, c / 4), (t4, c)], (r, c / 8)),
            "middle": (
                [(r, 0.0), (t1, c / 4), (r + 1.5, c / 2), (t4, c)],
                (r + 1.5, c / 2),
            ),
            # Meets the jump's upper value at t2 (right-continuity), then
            # runs ahead of the last ramp.
            "last": ([(r, 0.0), (t2, 3 * c / 4), (t3, c)], (t3, c)),
            "jump": ([(r, 0.0), (t1, c / 4), (t2, 7 * c / 8), (t4, c)], (t2, 7 * c / 8)),
        }[where]
        b = self._tamper(
            s, e, 0, arrival=arrival, departure=Cumulative(departure)
        )
        arrived = arrival.value(t)
        if where == "jump":
            assert arrived == 3 * c / 4
        self._expect(
            s,
            f"edge {e.key} on link {b.lid}: forwarded {v} by t={t} but only "
            f"{arrived} had arrived",
        )

    @pytest.mark.parametrize(
        "comm", [CommModel(hop_delay=0.5), CUT_THROUGH], ids=["hop-delay", "copy"]
    )
    def test_hop_outrunning_previous_hop(self, fork8, wan16, comm):
        # With hop delay 0.5 the arrival is a shifted copy of the previous
        # departure; with none, a copy stands in for the identical object the
        # scheduler passes, so the hop-to-hop pass must run.
        s = BBSAScheduler(comm=comm).schedule(fork8, wan16)
        e = self._routed_edge(s, min_hops=2)
        prev = s.bandwidth_state.bookings_of(e.key)[0].departure
        p0 = prev.start_time
        assert prev.value(p0 - comm.hop_delay) < e.cost / 2
        # Everything has arrived at p0, but the previous hop has just begun.
        step = Cumulative.step(p0, e.cost)
        b = self._tamper(s, e, 1, arrival=step, departure=step)
        assert b.arrival is not prev
        self._expect(
            s,
            f"edge {e.key} on link {b.lid}: forwarded {e.cost} by t={p0}, "
            f"outrunning the previous hop",
        )

    def test_store_and_forward_hop_starts_early(self, fork8, wan16):
        s = BBSAScheduler(comm=STORE_AND_FORWARD).schedule(fork8, wan16)
        e = self._routed_edge(s, min_hops=2)
        lower = s.bandwidth_state.bookings_of(e.key)[0].departure.finish_time()
        early = lower - 1.0
        b = self._tamper(
            s, e, 1,
            arrival=Cumulative.step(early, e.cost),
            departure=Cumulative([(early, 0.0), (lower, e.cost)]),
        )
        self._expect(
            s,
            f"edge {e.key} on link {b.lid}: store-and-forward hop starts at "
            f"{early}, before the previous hop completes at {lower}",
        )

    def test_transfer_begins_before_source_finishes(self, fork8, wan16):
        s = BBSAScheduler().schedule(fork8, wan16)
        e = self._routed_edge(s)
        src_finish = s.placements[e.src].finish
        early = src_finish - 1.0
        finish = s.bandwidth_state.bookings_of(e.key)[0].departure.finish_time()
        b = self._tamper(
            s, e, 0,
            arrival=Cumulative.step(early, e.cost),
            departure=Cumulative([(early, 0.0), (finish, e.cost)]),
        )
        self._expect(
            s,
            f"edge {e.key} on link {b.lid}: transfer begins at {early}, before "
            f"the source finishes at {src_finish}",
        )

    def test_final_hop_finish_differs_from_arrival(self, fork8, wan16):
        s = BBSAScheduler().schedule(fork8, wan16)
        e = self._routed_edge(s)
        last = s.bandwidth_state.bookings_of(e.key)[-1]
        *head, (t_end, v_end) = last.departure.points
        # Stretch the last piece: never ahead of the original, ends later.
        slower = Cumulative([*head, (t_end + 1.0, v_end)])
        self._tamper(s, e, -1, departure=slower)
        self._expect(
            s,
            f"edge {e.key}: recorded arrival {s.edge_arrivals[e.key]} != final "
            f"hop finish {slower.finish_time()}",
        )
