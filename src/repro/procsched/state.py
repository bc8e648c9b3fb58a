"""Processor-side schedule state: per-processor timelines and placements.

Schedulers probe candidate processors with :meth:`ProcessorState.probe`,
which books nothing, and commit the winner with :meth:`ProcessorState.place`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SchedulingError
from repro.obs import OBS
from repro.procsched.timeline import TaskSlot, find_task_gap, insert_task_slot
from repro.types import TaskId, VertexId


@dataclass(frozen=True, slots=True)
class TaskPlacement:
    """Where and when a task executes."""

    task: TaskId
    processor: VertexId
    start: float
    finish: float


@dataclass
class ProcessorState:
    """Per-processor timelines plus the task -> placement map."""

    _timelines: dict[VertexId, list[TaskSlot]] = field(default_factory=dict)
    _placements: dict[TaskId, TaskPlacement] = field(default_factory=dict)
    #: the last slot's finish of every non-empty timeline
    _finish: dict[VertexId, float] = field(default_factory=dict)

    def _writable(self, vid: VertexId) -> list[TaskSlot]:
        slots = self._timelines.get(vid)
        if slots is None:
            slots = []
            self._timelines[vid] = slots
        return slots

    # -- reads ----------------------------------------------------------------

    def timeline(self, vid: VertexId) -> list[TaskSlot]:
        """The processor's execution queue (treat as read-only)."""
        return self._timelines.get(vid, [])

    def finish_time(self, vid: VertexId) -> float:
        """The paper's ``t_f(P)``: when the processor's last task completes."""
        return self._finish.get(vid, 0.0)

    def finish_times(self) -> dict[VertexId, float]:
        """``t_f(P)`` of every processor with a task; absent means 0.0.

        The live map, for loops over every processor (treat as read-only).
        """
        return self._finish

    def placement(self, task: TaskId) -> TaskPlacement:
        try:
            return self._placements[task]
        except KeyError:
            raise SchedulingError(f"task {task} has not been placed") from None

    def is_placed(self, task: TaskId) -> bool:
        return task in self._placements

    def placements(self) -> dict[TaskId, TaskPlacement]:
        return dict(self._placements)

    # -- writes ---------------------------------------------------------------

    def probe(
        self, vid: VertexId, duration: float, est: float, *, insertion: bool = True
    ) -> tuple[int, float, float]:
        """Placement a task would get on ``vid`` without committing."""
        if OBS.on:
            OBS.metrics.counter("procsched.probes").inc()
        return find_task_gap(self.timeline(vid), duration, est, insertion=insertion)

    def place(
        self,
        task: TaskId,
        vid: VertexId,
        duration: float,
        est: float,
        *,
        insertion: bool = True,
    ) -> TaskPlacement:
        """Book ``task`` on processor ``vid`` at its earliest start >= ``est``."""
        if task in self._placements:
            raise SchedulingError(f"task {task} already placed")
        slots = self._writable(vid)
        index, start, finish = find_task_gap(slots, duration, est, insertion=insertion)
        insert_task_slot(slots, index, TaskSlot(task, start, finish))
        self._finish[vid] = slots[-1].finish
        placement = TaskPlacement(task, vid, start, finish)
        self._placements[task] = placement
        if OBS.on:
            OBS.metrics.counter("procsched.tasks_placed").inc()
            if not OBS.bus.quieted:
                OBS.emit(
                    "task_placed",
                    t=start,
                    task=task,
                    proc=vid,
                    start=start,
                    finish=finish,
                )
        return placement
