"""BA — the Basic Algorithm baseline (paper Section 3, Algorithm 1).

BA is Sinnen & Sousa's contention-aware list scheduler: BFS minimal
(hop-count) routing and basic insertion on every route link.  Two details of
the baseline are ambiguous between Sinnen's original and Han & Wang's
description of it (Section 4.1), so both are implemented behind flags, with
the defaults following *this paper's* description — it is the baseline its
figures were measured against:

- ``processor_choice``:
  * ``"blind-eft"`` (default) — the paper says BA picks the processor with
    the earliest task finish "while ignoring the effect of edge
    communication": ``min_P max(latest pred finish, t_f(P)) + w/s(P)``.
  * ``"tentative"`` — Sinnen-faithful: every processor is probed by
    booking all in-edges inside ``LinkScheduleState.tentative()``, which
    undoes them on exit; the earliest *actual* finish wins.  Much stronger
    and slower.

- ``shared_ready_time``:
  * ``True`` (default) — per the paper, "the start time of the communication
    data from predecessors to the ready task is all the same, that is, the
    finish time of the predecessor which finishes latest": every in-edge
    becomes available only at the *latest* predecessor finish.
  * ``False`` — each edge is available at its own source's finish.
"""

from __future__ import annotations

from typing import Any, Literal

from repro.core.base import ContentionScheduler
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.state import LinkScheduleState
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology, Route, Vertex
from repro.obs import OBS, span
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.types import EdgeKey, TaskId, VertexId


class BAScheduler(ContentionScheduler):
    """Basic Algorithm: BFS minimal routing + basic insertion."""

    name = "ba"

    def __init__(
        self,
        *,
        processor_choice: Literal["blind-eft", "tentative"] = "blind-eft",
        shared_ready_time: bool = True,
        task_insertion: bool = False,
        comm: CommModel = CUT_THROUGH,
    ) -> None:
        if processor_choice not in ("blind-eft", "tentative"):
            raise SchedulingError(f"unknown processor_choice {processor_choice!r}")
        self.processor_choice = processor_choice
        self.shared_ready_time = shared_ready_time
        self.task_insertion = task_insertion
        self.comm = comm
        self._lstate = LinkScheduleState()
        #: the task's latest predecessor finish, fixed by ``_select_processor``
        self._latest = 0.0

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        self._lstate = LinkScheduleState()

    def _bfs(self, net: NetworkTopology, src: int, dst: int) -> Route:
        # BFS routes are static (load-independent); the topology's shared
        # route table memoizes them across runs and engines.
        with span("routing"):
            return bfs_route(net, src, dst)

    def _select_processor(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> Vertex:
        """Blind EFT from the latest predecessor finish, or (``tentative``)
        the base class's probe of every processor."""
        self._latest = max(
            (pstate.placement(p).finish for p in graph.predecessors(tid)),
            default=0.0,
        )
        if self.processor_choice == "blind-eft":
            weight = graph.task(tid).weight
            return self._earliest_finish(procs, pstate, weight, self._latest, {})
        # Tentative probing books and undoes real link slots; keep the
        # decision log to committed work only (counters still accumulate).
        with OBS.bus.quiet():
            return super()._select_processor(graph, net, tid, procs, pstate)

    def _book_in_edges(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        proc: Vertex,
        pstate: ProcessorState,
        arrivals: dict[EdgeKey, float] | None,
    ) -> float:
        if arrivals is not None:
            return super()._book_in_edges(graph, net, tid, proc, pstate, arrivals)
        # A tentative probe books real slots, undone when the block exits.
        if OBS.on:
            OBS.metrics.counter("scheduler.processors_probed").inc()
        with self._lstate.tentative():
            return super()._book_in_edges(graph, net, tid, proc, pstate, None)

    def _edge_order(self, graph: TaskGraph, tid: TaskId) -> list[CommEdge]:
        return sorted(graph.in_edges(tid), key=lambda e: e.src)

    def _book_local(self, e: CommEdge, ready: float) -> float:
        self._lstate.record_route(e.key, ())
        return ready

    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        if self.shared_ready_time:
            ready = self._latest  # every in-edge waits for the last predecessor
        route = self._bfs(net, src, dst)
        with span("insertion"):
            return schedule_edge_basic(self._lstate, e.key, route, e.cost, ready, self.comm)

    def _link_engine(self) -> dict[str, Any]:
        return {"link_state": self._lstate, "comm": self.comm}
