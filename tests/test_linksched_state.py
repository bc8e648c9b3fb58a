"""Unit tests for repro.linksched.state (transactions, journal mode, fused booking)."""

import pytest

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.topology import Link


def make_state():
    state = LinkScheduleState()
    state.record_route((0, 1), (0, 1))
    state.insert(0, 0, TimeSlot((0, 1), 0.0, 2.0))
    state.insert(1, 0, TimeSlot((0, 1), 2.0, 4.0))
    return state


class TestBasics:
    def test_slots_empty_for_unknown_link(self):
        assert LinkScheduleState().slots(7) == []

    def test_insert_and_lookup(self):
        state = make_state()
        assert state.slot_of((0, 1), 0).finish == 2.0
        assert state.has_slot((0, 1), 0)
        assert not state.has_slot((0, 1), 5)

    def test_slot_of_missing_raises(self):
        with pytest.raises(SchedulingError):
            LinkScheduleState().slot_of((0, 1), 0)

    def test_double_booking_rejected(self):
        state = make_state()
        with pytest.raises(SchedulingError):
            state.insert(0, 1, TimeSlot((0, 1), 5.0, 6.0))

    def test_route_bookkeeping(self):
        state = make_state()
        assert state.route_of((0, 1)) == (0, 1)
        assert state.has_route((0, 1))
        with pytest.raises(SchedulingError):
            state.route_of((9, 9))
        with pytest.raises(SchedulingError):
            state.record_route((0, 1), (5,))

    def test_next_link(self):
        state = make_state()
        assert state.next_link_of((0, 1), 0) == 1
        assert state.next_link_of((0, 1), 1) is None
        with pytest.raises(SchedulingError):
            state.next_link_of((0, 1), 42)

    def test_used_links(self):
        assert sorted(make_state().used_links()) == [0, 1]


class TestTransactions:
    def test_rollback_restores_slots(self):
        state = make_state()
        state.begin()
        state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
        state.record_route((2, 3), (0,))
        state.rollback()
        assert len(state.slots(0)) == 1
        assert not state.has_route((2, 3))

    def test_commit_keeps_changes(self):
        state = make_state()
        state.begin()
        state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
        state.record_route((2, 3), (0,))
        state.commit()
        assert len(state.slots(0)) == 2
        assert state.has_route((2, 3))

    def test_rollback_restores_fresh_link(self):
        state = make_state()
        state.begin()
        state.insert(9, 0, TimeSlot((2, 3), 0.0, 1.0))
        state.rollback()
        assert state.slots(9) == []

    def test_rollback_of_replace_suffix(self):
        state = make_state()
        before = list(state.slots(0))
        state.begin()
        state.replace_suffix(0, 0, [TimeSlot((2, 3), 0.0, 1.0), TimeSlot((0, 1), 1.0, 3.0)])
        state.rollback()
        assert state.slots(0) == before
        assert state.slot_of((0, 1), 0).start == 0.0

    def test_no_nested_transactions(self):
        state = make_state()
        state.begin()
        with pytest.raises(SchedulingError):
            state.begin()
        state.rollback()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(SchedulingError):
            LinkScheduleState().commit()
        with pytest.raises(SchedulingError):
            LinkScheduleState().rollback()

    def test_reads_inside_transaction_see_changes(self):
        state = make_state()
        state.begin()
        state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
        assert len(state.slots(0)) == 2
        state.rollback()

    def test_sequential_transactions(self):
        state = make_state()
        for i in range(3):
            state.begin()
            state.insert(0, 1, TimeSlot((2, 3 + i), 5.0 + i, 6.0 + i))
            state.rollback()
        assert len(state.slots(0)) == 1


class TestReplaceSuffix:
    def test_replace_updates_index(self):
        state = make_state()
        moved = TimeSlot((0, 1), 1.0, 3.0)
        state.replace_suffix(0, 0, [TimeSlot((7, 8), 0.0, 1.0), moved])
        assert state.slot_of((0, 1), 0) is moved
        assert state.slot_of((7, 8), 0).start == 0.0

    def test_replace_rejects_duplicate_edges(self):
        state = make_state()
        with pytest.raises(SchedulingError):
            state.replace_suffix(
                0, 0, [TimeSlot((7, 8), 0.0, 1.0), TimeSlot((7, 8), 2.0, 3.0)]
            )


class TestJournalMode:
    def make_journaled(self):
        state = LinkScheduleState()
        state.enable_journal()
        state.record_route((0, 1), (0, 1))
        state.insert(0, 0, TimeSlot((0, 1), 0.0, 2.0))
        state.insert(1, 0, TimeSlot((0, 1), 2.0, 4.0))
        return state

    def test_mark_and_rollback_restores_slots_and_routes(self):
        state = self.make_journaled()
        mark = state.journal_mark()
        state.record_route((2, 3), (0,))
        state.insert(0, 1, TimeSlot((2, 3), 4.0, 5.0))
        assert len(state.slots(0)) == 2
        state.rollback_to(mark)
        assert [s.edge for s in state.slots(0)] == [(0, 1)]
        assert not state.has_route((2, 3))
        assert not state.has_slot((2, 3), 0)

    def test_nested_marks_rewind_to_any_checkpoint(self):
        state = self.make_journaled()
        marks = []
        for i in range(3):
            marks.append(state.journal_mark())
            state.record_route((5, 6 + i), (0,))
            state.insert(0, 1 + i, TimeSlot((5, 6 + i), 4.0 + i, 5.0 + i))
        state.rollback_to(marks[1])
        assert [s.edge for s in state.slots(0)] == [(0, 1), (5, 6)]
        state.rollback_to(marks[0])
        assert [s.edge for s in state.slots(0)] == [(0, 1)]

    def test_transactions_unavailable_in_journal_mode(self):
        state = self.make_journaled()
        with pytest.raises(SchedulingError):
            state.begin()

    def test_enable_journal_with_open_transaction_rejected(self):
        state = make_state()
        state.begin()
        with pytest.raises(SchedulingError):
            state.enable_journal()
        state.rollback()

    def test_double_enable_rejected(self):
        state = self.make_journaled()
        with pytest.raises(SchedulingError):
            state.enable_journal()

    def test_mark_and_rollback_require_journal(self):
        state = make_state()
        with pytest.raises(SchedulingError):
            state.journal_mark()
        with pytest.raises(SchedulingError):
            state.rollback_to(0)

    def test_rollback_mark_out_of_range(self):
        state = self.make_journaled()
        with pytest.raises(SchedulingError):
            state.rollback_to(state.journal_mark() + 1)
        with pytest.raises(SchedulingError):
            state.rollback_to(-1)

    def test_journaling_property(self):
        state = LinkScheduleState()
        assert not state.journaling
        state.enable_journal()
        assert state.journaling


class TestBookEdgeBasic:
    """The fused booking path must match the layered one bit-for-bit."""

    ROUTE = [
        Link(0, 2.0, 0, 10),
        Link(1, 1.0, 10, 11),
        Link(2, 4.0, 11, 1),
    ]

    BOOKINGS = [
        ((0, 1), 8.0, 0.0),
        ((0, 2), 4.0, 1.5),
        ((2, 3), 2.0, 0.25),
        ((3, 4), 16.0, 3.0),
    ]

    @pytest.mark.parametrize("comm", [CUT_THROUGH, STORE_AND_FORWARD,
                                      CommModel(hop_delay=0.5)])
    def test_matches_layered_booking(self, comm):
        fused = LinkScheduleState()
        layered = LinkScheduleState()
        for edge, cost, ready in self.BOOKINGS:
            a1 = fused.book_edge_basic(edge, self.ROUTE, cost, ready, comm)
            a2 = schedule_edge_basic(layered, edge, self.ROUTE, cost, ready, comm)
            assert a1 == a2
        assert fused.routes() == layered.routes()
        for link in self.ROUTE:
            assert fused.slots(link.lid) == layered.slots(link.lid)

    def test_record_false_skips_route_bookkeeping(self):
        state = LinkScheduleState()
        edge = (0, 1)
        state.book_edge_basic(edge, self.ROUTE, 4.0, 0.0, CUT_THROUGH, record=False)
        assert not state.has_route(edge)
        assert state.has_slot(edge, 0)

    def test_empty_route_returns_ready_time(self):
        state = LinkScheduleState()
        assert state.book_edge_basic((0, 1), [], 4.0, 1.5, CUT_THROUGH) == 1.5
        assert state.route_of((0, 1)) == ()

    def test_zero_cost_returns_ready_time(self):
        state = LinkScheduleState()
        assert state.book_edge_basic((0, 1), self.ROUTE, 0.0, 2.5, CUT_THROUGH) == 2.5
        assert state.route_of((0, 1)) == ()

    def test_negative_inputs_rejected(self):
        state = LinkScheduleState()
        with pytest.raises(SchedulingError):
            state.book_edge_basic((0, 1), self.ROUTE, -1.0, 0.0, CUT_THROUGH)
        with pytest.raises(SchedulingError):
            state.book_edge_basic((0, 1), self.ROUTE, 1.0, -0.5, CUT_THROUGH)

    def test_duplicate_edge_rejected(self):
        state = LinkScheduleState()
        state.book_edge_basic((0, 1), self.ROUTE, 4.0, 0.0, CUT_THROUGH)
        with pytest.raises(SchedulingError):
            state.book_edge_basic((0, 1), self.ROUTE, 4.0, 0.0, CUT_THROUGH,
                                  record=False)

    def test_journaled_bookings_rewind(self):
        state = LinkScheduleState()
        state.enable_journal()
        mark = state.journal_mark()
        state.book_edge_basic((0, 1), self.ROUTE, 4.0, 0.0, CUT_THROUGH)
        state.rollback_to(mark)
        assert not state.has_route((0, 1))
        assert all(state.slots(link.lid) == [] for link in self.ROUTE)
