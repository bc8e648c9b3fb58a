"""Unit tests for repro.procsched (timelines + processor state)."""

import pytest

from repro.exceptions import SchedulingError
from repro.procsched.state import ProcessorState
from repro.procsched.timeline import TaskSlot, find_task_gap, insert_task_slot


class TestTaskSlot:
    def test_duration(self):
        assert TaskSlot(0, 1.0, 4.0).duration == 3.0

    def test_invalid_rejected(self):
        with pytest.raises(SchedulingError):
            TaskSlot(0, -1.0, 2.0)
        with pytest.raises(SchedulingError):
            TaskSlot(0, 3.0, 2.0)


class TestFindTaskGap:
    def test_empty(self):
        assert find_task_gap([], 2.0, 1.0) == (0, 1.0, 3.0)

    def test_insertion_uses_gap(self):
        slots = [TaskSlot(0, 0.0, 1.0), TaskSlot(1, 5.0, 6.0)]
        assert find_task_gap(slots, 2.0, 0.0) == (1, 1.0, 3.0)

    def test_end_technique_appends(self):
        slots = [TaskSlot(0, 0.0, 1.0), TaskSlot(1, 5.0, 6.0)]
        assert find_task_gap(slots, 2.0, 0.0, insertion=False) == (2, 6.0, 8.0)

    def test_est_respected(self):
        slots = [TaskSlot(0, 0.0, 1.0), TaskSlot(1, 5.0, 6.0)]
        assert find_task_gap(slots, 2.0, 2.0) == (1, 2.0, 4.0)

    def test_gap_too_small(self):
        slots = [TaskSlot(0, 0.0, 1.0), TaskSlot(1, 2.0, 3.0)]
        assert find_task_gap(slots, 2.0, 0.0) == (2, 3.0, 5.0)

    def test_negative_args_rejected(self):
        with pytest.raises(SchedulingError):
            find_task_gap([], -1.0, 0.0)
        with pytest.raises(SchedulingError):
            find_task_gap([], 1.0, -1.0)

    def test_insert_overlap_rejected(self):
        slots = [TaskSlot(0, 0.0, 2.0)]
        with pytest.raises(SchedulingError):
            insert_task_slot(slots, 1, TaskSlot(1, 1.0, 3.0))
        with pytest.raises(SchedulingError):
            insert_task_slot(slots, 0, TaskSlot(1, 0.0, 1.0))


class TestProcessorState:
    def test_place_and_lookup(self):
        state = ProcessorState()
        pl = state.place(7, 2, 3.0, 1.0)
        assert (pl.processor, pl.start, pl.finish) == (2, 1.0, 4.0)
        assert state.placement(7) is pl
        assert state.is_placed(7)
        assert state.finish_time(2) == 4.0

    def test_end_technique_queues(self):
        state = ProcessorState()
        state.place(0, 1, 2.0, 0.0, insertion=False)
        state.place(1, 1, 2.0, 0.0, insertion=False)
        assert state.placement(1).start == 2.0

    def test_insertion_fills_gap(self):
        state = ProcessorState()
        state.place(0, 1, 1.0, 0.0)
        state.place(1, 1, 1.0, 5.0)
        state.place(2, 1, 2.0, 0.0, insertion=True)
        assert state.placement(2).start == 1.0

    def test_double_place_rejected(self):
        state = ProcessorState()
        state.place(0, 1, 1.0, 0.0)
        with pytest.raises(SchedulingError):
            state.place(0, 2, 1.0, 0.0)

    def test_unplaced_lookup_rejected(self):
        with pytest.raises(SchedulingError):
            ProcessorState().placement(3)

    def test_probe_does_not_commit(self):
        state = ProcessorState()
        index, start, finish = state.probe(4, 2.0, 1.0)
        assert (start, finish) == (1.0, 3.0)
        assert state.timeline(4) == []

    def test_finish_time_empty(self):
        assert ProcessorState().finish_time(9) == 0.0

    def test_placements_snapshot(self):
        state = ProcessorState()
        state.place(0, 1, 1.0, 0.0)
        snap = state.placements()
        state.place(1, 1, 1.0, 0.0)
        assert set(snap) == {0}
