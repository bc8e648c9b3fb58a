"""Core DAG data structure for dependent task sets.

The representation is deliberately plain (dicts of ids) rather than a wrapped
:mod:`networkx` graph: schedulers traverse predecessor/successor lists in hot
loops, and attribute-dict indirection there costs ~3x.  Conversion helpers to
and from networkx live on the class for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.exceptions import GraphError
from repro.types import EdgeKey, TaskId

if TYPE_CHECKING:
    # Interop only: ``to_networkx`` imports it when called, so neither
    # ``import repro`` nor any scheduling, validation or sweep loads it.
    import networkx as nx


@dataclass(frozen=True, slots=True)
class Task:
    """A task node: id, computation cost ``w`` and an optional label."""

    tid: TaskId
    weight: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise GraphError(f"task {self.tid} has negative weight {self.weight}")


@dataclass(frozen=True, slots=True)
class CommEdge:
    """A dependence edge ``src -> dst`` carrying ``cost`` units of data."""

    src: TaskId
    dst: TaskId
    cost: float

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise GraphError(
                f"edge {self.src}->{self.dst} has negative cost {self.cost}"
            )
        if self.src == self.dst:
            raise GraphError(f"self-loop on task {self.src}")

    @property
    def key(self) -> EdgeKey:
        return (self.src, self.dst)


@dataclass
class TaskGraph:
    """A directed acyclic graph of tasks with communication costs.

    Mutation is append-only (``add_task`` / ``add_edge``); schedulers treat the
    graph as immutable.  ``name`` is free-form metadata used in reports.
    """

    name: str = "taskgraph"
    _tasks: dict[TaskId, Task] = field(default_factory=dict)
    _edges: dict[EdgeKey, CommEdge] = field(default_factory=dict)
    _succs: dict[TaskId, list[TaskId]] = field(default_factory=dict)
    _preds: dict[TaskId, list[TaskId]] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    def add_task(self, tid: TaskId, weight: float, name: str = "") -> Task:
        """Add a task; ids must be unique."""
        if tid in self._tasks:
            raise GraphError(f"duplicate task id {tid}")
        task = Task(tid, float(weight), name)
        self._tasks[tid] = task
        self._succs[tid] = []
        self._preds[tid] = []
        return task

    def add_edge(self, src: TaskId, dst: TaskId, cost: float) -> CommEdge:
        """Add a dependence edge; both endpoints must already exist."""
        if src not in self._tasks:
            raise GraphError(f"edge references unknown source task {src}")
        if dst not in self._tasks:
            raise GraphError(f"edge references unknown destination task {dst}")
        key = (src, dst)
        if key in self._edges:
            raise GraphError(f"duplicate edge {src}->{dst}")
        edge = CommEdge(src, dst, float(cost))
        self._edges[key] = edge
        self._succs[src].append(dst)
        self._preds[dst].append(src)
        return edge

    # -- queries ------------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def task(self, tid: TaskId) -> Task:
        try:
            return self._tasks[tid]
        except KeyError:
            raise GraphError(f"unknown task id {tid}") from None

    def edge(self, src: TaskId, dst: TaskId) -> CommEdge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise GraphError(f"unknown edge {src}->{dst}") from None

    def has_task(self, tid: TaskId) -> bool:
        return tid in self._tasks

    def has_edge(self, src: TaskId, dst: TaskId) -> bool:
        return (src, dst) in self._edges

    def tasks(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task_ids(self) -> Iterator[TaskId]:
        return iter(self._tasks.keys())

    def edges(self) -> Iterator[CommEdge]:
        return iter(self._edges.values())

    def successors(self, tid: TaskId) -> list[TaskId]:
        try:
            return self._succs[tid]
        except KeyError:
            raise GraphError(f"unknown task id {tid}") from None

    def predecessors(self, tid: TaskId) -> list[TaskId]:
        try:
            return self._preds[tid]
        except KeyError:
            raise GraphError(f"unknown task id {tid}") from None

    def in_edges(self, tid: TaskId) -> list[CommEdge]:
        return [self._edges[(p, tid)] for p in self.predecessors(tid)]

    def out_edges(self, tid: TaskId) -> list[CommEdge]:
        return [self._edges[(tid, s)] for s in self.successors(tid)]

    def sources(self) -> list[TaskId]:
        """Tasks with no predecessors (entry tasks)."""
        return [t for t in self._tasks if not self._preds[t]]

    def sinks(self) -> list[TaskId]:
        """Tasks with no successors (exit tasks)."""
        return [t for t in self._tasks if not self._succs[t]]

    def total_work(self) -> float:
        return sum(t.weight for t in self._tasks.values())

    def total_comm(self) -> float:
        return sum(e.cost for e in self._edges.values())

    # -- orderings ----------------------------------------------------------

    def topological_order(self) -> list[TaskId]:
        """Kahn topological sort; raises :class:`CycleError` on cycles.

        Ties are broken by ascending task id so the order is deterministic.
        """
        from repro.exceptions import CycleError
        import heapq

        indeg = {t: len(ps) for t, ps in self._preds.items()}
        ready = [t for t, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[TaskId] = []
        while ready:
            t = heapq.heappop(ready)
            order.append(t)
            for s in self._succs[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != len(self._tasks):
            raise CycleError(
                f"task graph {self.name!r} contains a cycle "
                f"({len(self._tasks) - len(order)} tasks unreachable in Kahn order)"
            )
        return order

    # -- interoperability ---------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` with ``weight``/``cost`` attrs."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for t in self._tasks.values():
            g.add_node(t.tid, weight=t.weight, label=t.name)
        for e in self._edges.values():
            g.add_edge(e.src, e.dst, cost=e.cost)
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, name: str | None = None) -> "TaskGraph":
        """Build from a DiGraph carrying ``weight`` node and ``cost`` edge attrs."""
        tg = cls(name=name if name is not None else (g.name or "taskgraph"))
        for n, data in g.nodes(data=True):
            tg.add_task(int(n), float(data.get("weight", 1.0)), str(data.get("label", "")))
        for u, v, data in g.edges(data=True):
            tg.add_edge(int(u), int(v), float(data.get("cost", 0.0)))
        return tg

    def copy(self) -> "TaskGraph":
        other = TaskGraph(name=self.name)
        other._tasks = dict(self._tasks)
        other._edges = dict(self._edges)
        other._succs = {k: list(v) for k, v in self._succs.items()}
        other._preds = {k: list(v) for k, v in self._preds.items()}
        return other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges})"
        )
