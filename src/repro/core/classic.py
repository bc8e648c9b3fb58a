"""Contention-free "classic model" list scheduler.

The traditional idealization the paper's introduction criticizes: processors
are fully connected by dedicated links, all communications proceed
concurrently, and an inter-processor edge simply takes ``c(e) / s`` time
units, with ``s`` the direct link's speed when one exists and the topology's
mean link speed otherwise.  No link is ever booked, so the resulting makespan
is an (optimistic) lower-bound-style estimate — the baseline that shows what
ignoring contention costs.
"""

from __future__ import annotations

from repro.core.base import ContentionScheduler
from repro.network.topology import NetworkTopology
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.types import VertexId


class ClassicScheduler(ContentionScheduler):
    """Earliest-finish-time list scheduling under the contention-free model."""

    name = "classic"

    def __init__(self, *, task_insertion: bool = False) -> None:
        self.task_insertion = task_insertion
        self._direct_speed: dict[tuple[int, int], float] = {}

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        super()._begin(graph, net)
        # Direct-link speeds between processor pairs (max over parallel links).
        self._direct_speed = {}
        for p in net.processors():
            for link, nbr in net.out_links(p.vid):
                if net.vertex(nbr).is_processor:
                    key = (p.vid, nbr)
                    if link.speed > self._direct_speed.get(key, 0.0):
                        self._direct_speed[key] = link.speed

    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        return ready + e.cost / self._direct_speed.get((src, dst), self._mls)
