"""CPOP — Critical Path On a Processor (Topcuoglu et al., 2002).

Second classic-model literature baseline: tasks are prioritized by
``rank_u + rank_d`` (upward plus downward rank); tasks on the critical path
are all pinned to the single processor that executes the whole path fastest,
everything else goes to its earliest-finish processor.
"""

from __future__ import annotations

from repro.core.heft import HEFTScheduler, upward_ranks
from repro.network.topology import NetworkTopology, Vertex
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.priorities import priority_order
from repro.types import TaskId


def downward_ranks(
    graph: TaskGraph, mean_proc_speed: float, mean_link_speed: float
) -> dict[TaskId, float]:
    """CPOP's rank_d: longest normalized path from any entry task."""
    ranks: dict[TaskId, float] = {}
    for tid in graph.topological_order():
        best = 0.0
        for pred in graph.predecessors(tid):
            cand = (
                ranks[pred]
                + graph.task(pred).weight / mean_proc_speed
                + graph.edge(pred, tid).cost / mean_link_speed
            )
            if cand > best:
                best = cand
        ranks[tid] = best
    return ranks


class CPOPScheduler(HEFTScheduler):
    """Critical-path pinning + EFT for the rest, contention-free model.

    HEFT's transfer time and insertion-based placement; its own order and
    critical-path pin.
    """

    name = "cpop"
    processor_choice = "critical-path-or-eft"

    def _order(self, graph: TaskGraph, net: NetworkTopology) -> list[TaskId]:
        """Descending ``rank_u + rank_d``; also fixes the critical path and
        the processor it is pinned to."""
        s_mean = net.mean_processor_speed()
        rank_u = upward_ranks(graph, s_mean, self._mls)
        rank_d = downward_ranks(graph, s_mean, self._mls)
        priority = {t: rank_u[t] + rank_d[t] for t in graph.task_ids()}
        # The critical path: entry task with max priority, then greedily the
        # successor with (numerically) the same priority.
        cur = max(graph.sources(), key=lambda t: (priority[t], -t))
        self._cp_tasks = {cur}
        while graph.successors(cur):
            cur = max(graph.successors(cur), key=lambda s: (priority[s], -s))
            self._cp_tasks.add(cur)
        # Pin the path to the processor executing its total work fastest:
        # with speed-proportional execution that is simply the fastest one.
        self._cp_proc = max(net.processors(), key=lambda p: (p.speed, -p.vid))
        return priority_order(graph, priority)

    def _select_processor(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> Vertex:
        if tid in self._cp_tasks:
            return self._cp_proc
        return super()._select_processor(graph, net, tid, procs, pstate)
