"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

The best-known classic-model list scheduler, included as a literature
baseline (the paper's introduction situates its contribution against this
family).  HEFT differs from :class:`repro.core.classic.ClassicScheduler` in
two ways:

- **upward rank** priority: ``rank_u(n) = w(n)/s_mean + max_succ(c/MLS +
  rank_u(succ))`` — costs normalized by platform means, so ordering reflects
  the actual platform, not raw costs;
- **insertion-based** EFT: tasks may fill idle gaps between already-placed
  tasks.

Like the classic scheduler it assumes a contention-free network — pair it
with :func:`repro.core.replay.replay_under_contention` to see what its
schedules cost on a real network.
"""

from __future__ import annotations

from repro.core.base import ContentionScheduler
from repro.network.topology import NetworkTopology
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.taskgraph.priorities import priority_order
from repro.types import TaskId, VertexId


def upward_ranks(
    graph: TaskGraph, mean_proc_speed: float, mean_link_speed: float
) -> dict[TaskId, float]:
    """HEFT's rank_u with costs normalized by the platform means."""
    ranks: dict[TaskId, float] = {}
    for tid in reversed(graph.topological_order()):
        w = graph.task(tid).weight / mean_proc_speed
        best = 0.0
        for succ in graph.successors(tid):
            cand = graph.edge(tid, succ).cost / mean_link_speed + ranks[succ]
            if cand > best:
                best = cand
        ranks[tid] = w + best
    return ranks


class HEFTScheduler(ContentionScheduler):
    """Insertion-based EFT under the contention-free model, rank_u priority."""

    name = "heft"
    task_insertion = True

    def _order(self, graph: TaskGraph, net: NetworkTopology) -> list[TaskId]:
        ranks = upward_ranks(graph, net.mean_processor_speed(), self._mls)
        return priority_order(graph, ranks)

    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        return ready + e.cost / self._mls
