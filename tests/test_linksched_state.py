"""Unit tests for repro.linksched.state (queues and undo-logged tentative booking)."""

import pytest

from repro.exceptions import SchedulingError
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState


def make_queue():
    """One link holding four slots, edges ``(k, k + 1)`` for k = 0..3."""
    state = LinkScheduleState()
    for k in range(4):
        state.insert(0, k, TimeSlot((k, k + 1), 4.0 * k, 4.0 * k + 2.0))
    return state


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

    def test_exit_undoes_replace_run(self):
        state = make_state()
        before = list(state.slots(0))
        with state.tentative():
            state.replace_run(
                0, 0, 1, [TimeSlot((2, 3), 0.0, 1.0), TimeSlot((0, 1), 1.0, 3.0)]
            )
        assert state.slots(0) == before
        assert state.slot_of((0, 1), 0).start == 0.0

    def test_exit_undoes_mid_queue_run(self):
        state = make_queue()
        before = list(state.slots(0))
        with state.tentative():
            state.replace_run(0, 1, 2, [TimeSlot((9, 9), 2.0, 3.0), before[1].shifted(1.0)])
            state.replace_run(0, 4, 4, [TimeSlot((9, 10), 20.0, 21.0)])
            assert len(state.slots(0)) == 6
        after = state.slots(0)
        assert all(a is b for a, b in zip(after, before, strict=True))
        assert state.queue_arrays(0)[1:] == (
            [s.start for s in before],
            [s.finish for s in before],
        )
        assert not state.has_slot((9, 9), 0) and not state.has_slot((9, 10), 0)
        assert state.slot_of((1, 2), 0) is before[1]

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


class TestReplaceRun:
    def test_replace_updates_index(self):
        state = make_state()
        moved = TimeSlot((0, 1), 1.0, 3.0)
        state.replace_run(0, 0, 1, [TimeSlot((7, 8), 0.0, 1.0), moved])
        assert state.slot_of((0, 1), 0) is moved
        assert state.slot_of((7, 8), 0).start == 0.0

    def test_replace_rejects_duplicate_edges(self):
        state = make_state()
        with pytest.raises(SchedulingError):
            state.replace_run(
                0, 0, 1, [TimeSlot((7, 8), 0.0, 1.0), TimeSlot((7, 8), 2.0, 3.0)]
            )

    def test_run_rejects_an_edge_booked_outside_it(self):
        # Edge (2, 3) sits behind the run, so the run may not book it again.
        state = make_queue()
        with pytest.raises(SchedulingError, match=r"edge \(2, 3\) booked twice on link 0"):
            state.replace_run(0, 1, 2, [TimeSlot((2, 3), 2.0, 3.0)])

    def test_run_leaves_its_tail_untouched(self):
        state = make_queue()
        before = list(state.slots(0))
        new = TimeSlot((9, 9), 2.0, 3.0)
        moved = before[1].shifted(1.0)
        state.replace_run(0, 1, 2, [new, moved])
        slots, starts, finishes = state.queue_arrays(0)
        assert slots == [before[0], new, moved, *before[2:]]
        assert slots[0] is before[0]
        assert all(a is b for a, b in zip(slots[3:], before[2:], strict=True))
        assert starts == [s.start for s in slots]
        assert finishes == [s.finish for s in slots]
        assert state.slot_of((1, 2), 0) is moved
        assert state.slot_of((9, 9), 0) is new
