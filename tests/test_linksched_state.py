"""Unit tests for repro.linksched.state (queues and undo-logged tentative booking)."""

import pytest

from repro.exceptions import SchedulingError
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState


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


class TestTentative:
    def test_exit_restores_slots(self):
        state = make_state()
        with state.tentative():
            state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
            state.record_route((2, 3), (0,))
        assert len(state.slots(0)) == 1
        assert not state.has_route((2, 3))

    def test_exit_by_exception_restores_slots(self):
        state = make_state()
        with pytest.raises(RuntimeError, match="mid-probe"):
            with state.tentative():
                state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
                state.record_route((2, 3), (0,))
                raise RuntimeError("mid-probe")
        assert len(state.slots(0)) == 1
        assert not state.has_route((2, 3))
        with state.tentative():  # the block closed: a new one opens
            pass

    def test_exit_restores_fresh_link(self):
        state = make_state()
        with state.tentative():
            state.insert(9, 0, TimeSlot((2, 3), 0.0, 1.0))
        assert state.slots(9) == []

    def test_exit_undoes_replace_suffix(self):
        state = make_state()
        before = list(state.slots(0))
        with state.tentative():
            state.replace_suffix(
                0, 0, [TimeSlot((2, 3), 0.0, 1.0), TimeSlot((0, 1), 1.0, 3.0)]
            )
        assert state.slots(0) == before
        assert state.slot_of((0, 1), 0).start == 0.0

    def test_no_nesting(self):
        state = make_state()
        with state.tentative():
            state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
            with pytest.raises(SchedulingError):
                with state.tentative():
                    pass
        assert len(state.slots(0)) == 1

    def test_reads_inside_block_see_changes(self):
        state = make_state()
        with state.tentative():
            state.insert(0, 1, TimeSlot((2, 3), 5.0, 6.0))
            assert len(state.slots(0)) == 2
            assert state.slot_of((2, 3), 0).start == 5.0

    def test_sequential_blocks(self):
        state = make_state()
        for i in range(3):
            with state.tentative():
                state.insert(0, 1, TimeSlot((2, 3 + i), 5.0 + i, 6.0 + i))
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
