"""Processor-side schedule state with copy-on-write transactions.

Mirrors :class:`repro.linksched.state.LinkScheduleState` so a scheduler can
open one transaction spanning both link and processor bookings while probing
a candidate processor.
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
    _txn_timelines: dict[VertexId, list[TaskSlot]] | None = None
    _txn_tasks: list[TaskId] | None = None

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        if self._txn_timelines is not None:
            raise SchedulingError("processor transaction already open")
        self._txn_timelines = {}
        self._txn_tasks = []

    def commit(self) -> None:
        if self._txn_timelines is None:
            raise SchedulingError("no open processor transaction")
        self._txn_timelines = None
        self._txn_tasks = None

    def rollback(self) -> None:
        if self._txn_timelines is None or self._txn_tasks is None:
            raise SchedulingError("no open processor transaction")
        for vid, original in self._txn_timelines.items():
            self._timelines[vid] = original
        for task in self._txn_tasks:
            del self._placements[task]
        self._txn_timelines = None
        self._txn_tasks = None

    def _writable(self, vid: VertexId) -> list[TaskSlot]:
        slots = self._timelines.get(vid)
        if slots is None:
            slots = []
            self._timelines[vid] = slots
            if self._txn_timelines is not None and vid not in self._txn_timelines:
                self._txn_timelines[vid] = []
            return slots
        if self._txn_timelines is not None and vid not in self._txn_timelines:
            self._txn_timelines[vid] = slots
            slots = list(slots)
            self._timelines[vid] = slots
        return slots

    # -- reads ----------------------------------------------------------------

    def timeline(self, vid: VertexId) -> list[TaskSlot]:
        """The processor's execution queue (treat as read-only)."""
        return self._timelines.get(vid, [])

    def finish_time(self, vid: VertexId) -> float:
        """The paper's ``t_f(P)``: when the processor's last task completes."""
        slots = self._timelines.get(vid)
        return slots[-1].finish if slots else 0.0

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
        placement = TaskPlacement(task, vid, start, finish)
        self._placements[task] = placement
        if self._txn_tasks is not None:
            self._txn_tasks.append(task)
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
