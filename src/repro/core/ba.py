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
    tentatively booking all in-edges under a link transaction and rolled
    back; the earliest *actual* finish wins.  Much stronger and slower.

- ``shared_ready_time``:
  * ``True`` (default) — per the paper, "the start time of the communication
    data from predecessors to the ready task is all the same, that is, the
    finish time of the predecessor which finishes latest": every in-edge
    becomes available only at the *latest* predecessor finish.
  * ``False`` — each edge is available at its own source's finish.
"""

from __future__ import annotations

from typing import Literal

from repro.core.base import ContentionScheduler
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.state import LinkScheduleState
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology, Route, Vertex
from repro.obs import OBS, span
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import TaskGraph
from repro.types import EdgeKey, TaskId


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
        self._arrivals: dict[EdgeKey, float] = {}

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        self._lstate = LinkScheduleState()
        self._arrivals = {}

    def _bfs(self, net: NetworkTopology, src: int, dst: int) -> Route:
        # BFS routes are static (load-independent); the topology's shared
        # route table memoizes them across runs and engines.
        with span("routing"):
            return bfs_route(net, src, dst)

    def _book_in_edges(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        proc: Vertex,
        pstate: ProcessorState,
        arrivals_out: dict[EdgeKey, float] | None,
    ) -> float:
        """Schedule all in-edges of ``tid`` toward ``proc``; return data-ready time."""
        edges = sorted(graph.in_edges(tid), key=lambda e: e.src)
        latest = max((pstate.placement(e.src).finish for e in edges), default=0.0)
        t_dr = 0.0
        for e in edges:
            src_pl = pstate.placement(e.src)
            if src_pl.processor == proc.vid:
                arrival = src_pl.finish
                self._lstate.record_route(e.key, ())
            else:
                ready = latest if self.shared_ready_time else src_pl.finish
                route = self._bfs(net, src_pl.processor, proc.vid)
                with span("insertion"):
                    arrival = schedule_edge_basic(
                        self._lstate, e.key, route, e.cost, ready, self.comm
                    )
            if arrivals_out is not None:
                arrivals_out[e.key] = arrival
            t_dr = max(t_dr, arrival)
        return t_dr

    def _select_processor(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> Vertex:
        weight = graph.task(tid).weight
        if self.processor_choice == "blind-eft":
            with span("processor_selection"):
                latest = max(
                    (pstate.placement(p).finish for p in graph.predecessors(tid)),
                    default=0.0,
                )
                return self._earliest_finish(procs, pstate, weight, latest, {})
        best: tuple[float, int] | None = None
        chosen = procs[0]
        # Tentative probing books and rolls back real link slots; keep the
        # decision log to committed work only (counters still accumulate).
        with span("processor_selection"), OBS.bus.quiet():
            for proc in procs:
                if OBS.on:
                    OBS.metrics.counter("scheduler.processors_probed").inc()
                self._lstate.begin()
                try:
                    t_dr = self._book_in_edges(graph, net, tid, proc, pstate, None)
                    _, _, finish = pstate.probe(
                        proc.vid,
                        weight / proc.speed,
                        t_dr,
                        insertion=self.task_insertion,
                    )
                finally:
                    self._lstate.rollback()
                key = (finish, proc.vid)
                if best is None or key < best:
                    best, chosen = key, proc
        return chosen

    def _place_task(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> None:
        chosen = self._select_processor(graph, net, tid, procs, pstate)
        if OBS.on:
            OBS.metrics.counter("scheduler.processors_chosen").inc()
            OBS.emit(
                "processor_chosen",
                task=tid,
                proc=chosen.vid,
                policy=self.processor_choice,
                candidates=len(procs),
            )
        t_dr = self._book_in_edges(graph, net, tid, chosen, pstate, self._arrivals)
        self._place_on(
            pstate,
            tid,
            chosen,
            graph.task(tid).weight,
            t_dr,
            insertion=self.task_insertion,
        )

    def _finish(
        self, graph: TaskGraph, net: NetworkTopology, pstate: ProcessorState
    ) -> Schedule:
        return Schedule(
            algorithm=self.name,
            graph=graph,
            net=net,
            placements=pstate.placements(),
            edge_arrivals=dict(self._arrivals),
            link_state=self._lstate,
            comm=self.comm,
        )
