"""List-scheduling framework shared by all contention-aware algorithms.

Every scheduler follows the same outer loop (paper Algorithm 1):

1. order tasks by static priority (descending bottom level, precedence-safe),
2. for each task: pick a processor, schedule its incoming communications
   onto network links, then book the task itself (end technique — the
   model's ``t_s(n, P) = max(t_dr(n, P), t_f(P))``).

Subclasses define the three policy points: processor selection, edge order,
and how an edge is routed + booked.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.network.topology import NetworkTopology, Vertex
from repro.network.validate import validate_topology
from repro.obs import capture_stats, span
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.taskgraph.priorities import priority_list
from repro.taskgraph.validate import validate_graph
from repro.types import TaskId, VertexId


class ContentionScheduler(ABC):
    """Base class: validates inputs, runs the list loop, assembles the result."""

    #: short algorithm name used in reports
    name: str = "base"

    #: book tasks into idle processor gaps instead of appending (ablation knob)
    task_insertion: bool = False

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
        for tid in priority_list(graph):
            self._place_task(graph, net, tid, procs, pstate)
        result = self._finish(graph, net, pstate)
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

    @abstractmethod
    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        """Reset per-run state (link schedules etc.)."""

    @abstractmethod
    def _place_task(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> None:
        """Choose a processor for ``tid``, book its in-edges and the task."""

    @abstractmethod
    def _finish(
        self, graph: TaskGraph, net: NetworkTopology, pstate: ProcessorState
    ) -> Schedule:
        """Assemble the :class:`Schedule` from the run's state."""

    # -- shared helpers --------------------------------------------------------

    @staticmethod
    def _in_edges_by_cost(graph: TaskGraph, tid: TaskId) -> list[CommEdge]:
        """The paper's edge priority: descending cost, stable on source id."""
        return sorted(graph.in_edges(tid), key=lambda e: (-e.cost, e.src))

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

    @staticmethod
    def _place_on(
        pstate: ProcessorState,
        tid: TaskId,
        proc: Vertex,
        weight: float,
        data_ready: float,
        *,
        insertion: bool,
    ) -> float:
        """Book the task on ``proc``; return its finish time."""
        if proc.speed <= 0:
            raise SchedulingError(f"processor {proc.vid} has invalid speed")
        with span("task_placement"):
            placement = pstate.place(
                tid, proc.vid, weight / proc.speed, data_ready, insertion=insertion
            )
        return placement.finish
