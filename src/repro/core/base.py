"""List-scheduling framework shared by all contention-aware algorithms.

:meth:`ContentionScheduler.schedule` is the paper's Algorithm 1, written
once for every list scheduler:

1. order the tasks (``_order``; default: descending bottom level,
   precedence-safe),
2. for each task: pick a processor (``_select_processor``), book its
   incoming communications toward it (``_book_in_edges``: the edges of
   ``_edge_order``, each through ``_book_local`` or ``_book_remote``), then
   book the task itself (end technique — the model's
   ``t_s(n, P) = max(t_dr(n, P), t_f(P))``),
3. build the :class:`Schedule` around the run's link engine
   (``_link_engine``).

A scheduler is its answers to those hooks plus ``_begin``, which resets its
per-run state.  :class:`MLSScheduler` holds the answers OIHSA and BBSA
share.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology, Route, Vertex
from repro.network.validate import validate_topology
from repro.obs import OBS, capture_stats, span
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.taskgraph.priorities import priority_list
from repro.taskgraph.validate import validate_graph
from repro.types import EdgeKey, TaskId, VertexId


class ContentionScheduler(ABC):
    """Base class: validates inputs, runs the list loop, assembles the result."""

    #: short algorithm name used in reports
    name: str = "base"

    #: book tasks into idle processor gaps instead of appending (ablation knob)
    task_insertion: bool = False

    #: how ``_select_processor`` chooses (the ``processor_chosen`` event's policy)
    processor_choice: str = "eft"

    def schedule(self, graph: TaskGraph, net: NetworkTopology) -> Schedule:
        """Schedule ``graph`` onto ``net`` and return the full schedule.

        When :mod:`repro.obs` is enabled the returned schedule carries a
        ``stats`` attachment: the run's counter/histogram deltas, per-phase
        timings, and (for in-memory sinks) its decision-event log.
        """
        validate_graph(graph)
        validate_topology(net)
        capture = capture_stats()
        self._begin(graph, net)
        procs = sorted(net.processors(), key=lambda p: p.vid)
        pstate = ProcessorState()
        arrivals: dict[EdgeKey, float] = {}
        for tid in self._order(graph, net):
            with span("processor_selection"):
                proc = self._select_processor(graph, net, tid, procs, pstate)
            if OBS.on:
                OBS.metrics.counter("scheduler.processors_chosen").inc()
                OBS.emit(
                    "processor_chosen",
                    task=tid,
                    proc=proc.vid,
                    policy=self.processor_choice,
                    candidates=len(procs),
                )
            t_dr = self._book_in_edges(graph, net, tid, proc, pstate, arrivals)
            if proc.speed <= 0:
                raise SchedulingError(f"processor {proc.vid} has invalid speed")
            with span("task_placement"):
                pstate.place(
                    tid,
                    proc.vid,
                    graph.task(tid).weight / proc.speed,
                    t_dr,
                    insertion=self.task_insertion,
                )
        if not arrivals and graph.num_edges:
            raise SchedulingError("internal error: no edges were booked")
        result = Schedule(
            algorithm=self.name,
            graph=graph,
            net=net,
            placements=pstate.placements(),
            edge_arrivals=arrivals,
            **self._link_engine(),
        )
        if capture is not None:
            result.stats = capture.finish(self._result_gauges(result))
        return result

    def _result_gauges(self, result: Schedule) -> dict[str, float]:
        """The run's summary gauges, recorded into its stats."""
        from repro.core.metrics import link_utilization

        util = link_utilization(result)
        gauges = {
            f"schedule.{self.name}.makespan": result.makespan,
            f"schedule.{self.name}.links_used": float(len(util)),
        }
        if util:
            gauges[f"schedule.{self.name}.max_link_utilization"] = max(util.values())
        return gauges

    # -- hooks ----------------------------------------------------------------

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        """Reset per-run state.  The default fixes ``_mls``, the mean link
        speed that contention-free estimates divide by."""
        self._mls = net.mean_link_speed() if net.num_links else 1.0

    def _order(self, graph: TaskGraph, net: NetworkTopology) -> list[TaskId]:
        """The order tasks are scheduled in (the paper's: descending bottom level)."""
        return priority_list(graph)

    def _select_processor(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> Vertex:
        """The processor where ``tid`` would finish first.

        Each candidate is probed: the in-edges are booked toward it as a
        probe, then the task.  ``procs`` is sorted by vid, so keeping the
        first strict improvement is the ``(finish, vid)`` minimum.
        """
        weight = graph.task(tid).weight
        best = float("inf")
        chosen = procs[0]
        for proc in procs:
            t_dr = self._book_in_edges(graph, net, tid, proc, pstate, None)
            _, _, finish = pstate.probe(
                proc.vid, weight / proc.speed, t_dr, insertion=self.task_insertion
            )
            if finish < best:
                best, chosen = finish, proc
        return chosen

    def _edge_order(self, graph: TaskGraph, tid: TaskId) -> list[CommEdge]:
        """``tid``'s in-edges in booking order (default: the graph's)."""
        return graph.in_edges(tid)

    def _book_in_edges(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        proc: Vertex,
        pstate: ProcessorState,
        arrivals: dict[EdgeKey, float] | None,
    ) -> float:
        """Book ``tid``'s in-edges toward ``proc``; return its data-ready time.

        Each edge's arrival goes into ``arrivals``; ``None`` marks a probe
        of a candidate processor, whose bookings an engine that keeps them
        must undo.
        """
        t_dr = 0.0
        for e in self._edge_order(graph, tid):
            src_pl = pstate.placement(e.src)
            if src_pl.processor == proc.vid:
                arrival = self._book_local(e, src_pl.finish)
            else:
                arrival = self._book_remote(
                    net, e, src_pl.processor, proc.vid, src_pl.finish
                )
            if arrivals is not None:
                arrivals[e.key] = arrival
            if arrival > t_dr:
                t_dr = arrival
        return t_dr

    def _book_local(self, e: CommEdge, ready: float) -> float:
        """Book a same-processor edge whose data is ready at ``ready``;
        return its arrival.  Local communication is free."""
        return ready

    @abstractmethod
    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        """Route and book edge ``e`` from processor ``src`` to ``dst``, its
        data ready at ``ready``; return its arrival at ``dst``."""

    def _link_engine(self) -> dict[str, Any]:
        """The run's link bookings, as :class:`Schedule` keyword arguments
        (none for the contention-free model)."""
        return {}

    # -- shared helpers --------------------------------------------------------

    @staticmethod
    def _mls_select_processor(
        graph: TaskGraph,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
        mls: float,
        *,
        local_comm_exempt: bool = True,
    ) -> Vertex:
        """The paper's Section 4.1 processor heuristic (shared by OIHSA/BBSA).

        ``min_P [ max( max_j(t_f(pred_j) + c(e_j,i)/MLS), t_f(P) ) + w/s(P) ]``

        With ``local_comm_exempt`` (default) the ``c/MLS`` term is dropped for
        predecessors already on the candidate processor, consistent with the
        model's free local communication; the printed formula has no such
        conditional, so ``False`` gives the literal reading (ablation knob).
        """
        if mls <= 0:
            raise SchedulingError(f"invalid mean link speed {mls}")
        weight = graph.task(tid).weight
        # Each predecessor's placement and remote estimate are the same for
        # every candidate; compute them once.  A processor that hosts no
        # predecessor sees only remote estimates, so its bound is their
        # running max from 0.0 (``remote``); only the hosts need a bound of
        # their own.  ``max`` is exact, so both are the floats a scan of
        # every (processor, predecessor) pair computes.
        preds = []
        remote = 0.0
        for e in graph.in_edges(tid):
            src_pl = pstate.placement(e.src)
            est = src_pl.finish + e.cost / mls
            if est > remote:
                remote = est
            preds.append((src_pl.processor, src_pl.finish, est))
        hosts: dict[VertexId, float] = {}
        if local_comm_exempt:
            for host, _, _ in preds:
                if host in hosts:
                    continue
                bound = 0.0
                for src_proc, local_est, remote_est in preds:
                    est = local_est if src_proc == host else remote_est
                    if est > bound:
                        bound = est
                hosts[host] = bound
        return ContentionScheduler._earliest_finish(procs, pstate, weight, remote, hosts)

    @staticmethod
    def _earliest_finish(
        procs: list[Vertex],
        pstate: ProcessorState,
        weight: float,
        ready: float,
        own_ready: dict[VertexId, float],
    ) -> Vertex:
        """The processor with the least ``max(r(P), t_f(P)) + weight / s(P)``.

        ``r(P)`` is ``own_ready[P]`` where given, else ``ready``.  ``procs``
        is sorted by vid (see ``schedule``), so keeping the first strict
        improvement reproduces the ``(finish, vid)`` tie-break without
        building a tuple per candidate; of two equal operands the max keeps
        ``r(P)``, as ``max(r(P), t_f(P))`` does.
        """
        finish_of = pstate.finish_times().get
        ready_of = own_ready.get
        best_finish = float("inf")
        chosen = procs[0]
        for proc in procs:
            vid = proc.vid
            start = ready_of(vid, ready)
            ft = finish_of(vid, 0.0)
            if ft > start:
                start = ft
            finish = start + weight / proc.speed
            if finish < best_finish:
                best_finish, chosen = finish, proc
        return chosen


class MLSScheduler(ContentionScheduler):
    """The policy OIHSA and BBSA share (paper Sections 4.1–4.3).

    - the processor is chosen by the mean-link-speed estimate
      (:meth:`ContentionScheduler._mls_select_processor`), not by probing;
    - in-edges are booked in descending cost order (``edge_priority``), so
      big transfers grab routes and slots first;
    - a remote edge takes the route with the earliest arrival under the
      current link bookings (``_search``), or the BFS route without
      ``modified_routing``.

    A subclass supplies ``_search`` and its booking.
    """

    processor_choice = "mls-estimate"
    # the ablation knobs each subclass's constructor sets
    modified_routing: bool
    edge_priority: bool
    local_comm_exempt: bool

    def _select_processor(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> Vertex:
        return self._mls_select_processor(
            graph, tid, procs, pstate, self._mls,
            local_comm_exempt=self.local_comm_exempt,
        )

    def _edge_order(self, graph: TaskGraph, tid: TaskId) -> list[CommEdge]:
        if self.edge_priority:
            return sorted(graph.in_edges(tid), key=lambda e: (-e.cost, e.src))
        return sorted(graph.in_edges(tid), key=lambda e: e.src)

    def _route(
        self, net: NetworkTopology, src: int, dst: int, cost: float, ready: float
    ) -> Route:
        if not self.modified_routing:
            with span("routing"):
                return bfs_route(net, src, dst)
        if cost < 0:
            raise SchedulingError(f"negative communication cost {cost}")
        with span("routing"):
            return self._search(net, src, dst, cost, ready)

    @abstractmethod
    def _search(
        self, net: NetworkTopology, src: int, dst: int, cost: float, ready: float
    ) -> Route:
        """The route from ``src`` to ``dst`` on which a ``cost``-sized
        transfer ready at ``ready`` arrives first."""
