"""Static task priorities: bottom level, top level, critical path.

The paper orders tasks by *bottom level* ``bl(n) = w(n) + max_succ(c(e) +
bl(succ))`` (Section 2.1).  Because ``bl(parent) >= w(parent) + bl(child)``
with ``w > 0``, a descending-``bl`` order is a topological order for strictly
positive weights; the tie-break in :func:`priority_list` makes it one even
with zero-weight tasks.
"""

from __future__ import annotations

from repro.taskgraph.graph import TaskGraph
from repro.types import TaskId


def bottom_levels(graph: TaskGraph) -> dict[TaskId, float]:
    """Length of the longest path (computation + communication) leaving each task."""
    bl: dict[TaskId, float] = {}
    for tid in reversed(graph.topological_order()):
        w = graph.task(tid).weight
        best = 0.0
        for succ in graph.successors(tid):
            cand = graph.edge(tid, succ).cost + bl[succ]
            if cand > best:
                best = cand
        bl[tid] = w + best
    return bl


def top_levels(graph: TaskGraph) -> dict[TaskId, float]:
    """Length of the longest path arriving at each task (excluding its own weight)."""
    tl: dict[TaskId, float] = {}
    for tid in graph.topological_order():
        best = 0.0
        for pred in graph.predecessors(tid):
            cand = tl[pred] + graph.task(pred).weight + graph.edge(pred, tid).cost
            if cand > best:
                best = cand
        tl[tid] = best
    return tl


def critical_path(graph: TaskGraph) -> list[TaskId]:
    """One longest (computation + communication) source-to-sink path."""
    bl = bottom_levels(graph)
    sources = graph.sources()
    if not sources:
        return []
    cur = max(sources, key=lambda t: (bl[t], -t))
    path = [cur]
    while graph.successors(cur):
        cur = max(
            graph.successors(cur),
            key=lambda s: (graph.edge(path[-1], s).cost + bl[s], -s),
        )
        path.append(cur)
    return path


def critical_path_length(graph: TaskGraph) -> float:
    """Length of the critical path; 0 for an empty graph."""
    bl = bottom_levels(graph)
    return max(bl.values(), default=0.0)


def priority_list(graph: TaskGraph) -> list[TaskId]:
    """Schedule order: descending bottom level, precedence-safe.

    The paper's order: :func:`priority_order` keyed by
    :func:`bottom_levels`, so the result is simultaneously a topological
    order and (for positive weights) the descending-``bl`` order.
    """
    return priority_order(graph, bottom_levels(graph))


def priority_order(graph: TaskGraph, priority: dict[TaskId, float]) -> list[TaskId]:
    """A Kahn sweep that always releases the ready task of highest priority.

    Ties break on ascending task id for determinism.  Any priority map gives
    a topological order; list schedulers differ only in the map (bottom
    level here, HEFT's ``rank_u``, CPOP's ``rank_u + rank_d``).
    """
    import heapq

    indeg = {t: len(graph.predecessors(t)) for t in graph.task_ids()}
    ready = [(-priority[t], t) for t, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[TaskId] = []
    while ready:
        _, t = heapq.heappop(ready)
        order.append(t)
        for s in graph.successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, (-priority[s], s))
    if len(order) != graph.num_tasks:
        from repro.exceptions import CycleError

        raise CycleError(f"task graph {graph.name!r} contains a cycle")
    return order
