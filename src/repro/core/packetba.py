"""PBA — packet-switched Basic Algorithm.

BA's framework (BFS minimal routing, blind-EFT processor choice) on the
packet-switched link engine of :mod:`repro.linksched.packets`: every
communication is divided into ``n_packets`` store-and-forward packets
pipelined along the route.  Bridges the gap the paper points out between
BA's circuit-switched idealization and real packet networks; the packet
count is the knob (`benchmarks/bench_packet_pipelining.py` sweeps it).
"""

from __future__ import annotations

from typing import Any

from repro.core.ba import BAScheduler
from repro.exceptions import SchedulingError
from repro.linksched.packets import PacketLinkState
from repro.network.topology import NetworkTopology
from repro.taskgraph.graph import CommEdge, TaskGraph
from repro.types import VertexId


class PacketBAScheduler(BAScheduler):
    """BA with packetized (store-and-forward, pipelined) communication.

    BA's blind-EFT choice, source-id edge order and BFS routes; each edge's
    packets are ready when its own source finishes.
    """

    name = "packet-ba"
    processor_choice = "blind-eft"

    def __init__(self, *, n_packets: int = 4, hop_delay: float = 0.0) -> None:
        if n_packets < 1:
            raise SchedulingError(f"need at least one packet, got {n_packets}")
        self.n_packets = n_packets
        self.hop_delay = hop_delay
        self._pstate_links = PacketLinkState()

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        self._pstate_links = PacketLinkState()

    def _book_local(self, e: CommEdge, ready: float) -> float:
        self._pstate_links.schedule_edge(e.key, [], e.cost, ready, self.n_packets)
        return ready

    def _book_remote(
        self, net: NetworkTopology, e: CommEdge, src: VertexId, dst: VertexId, ready: float
    ) -> float:
        route = self._bfs(net, src, dst)
        return self._pstate_links.schedule_edge(
            e.key, route, e.cost, ready, self.n_packets, self.hop_delay
        )

    def _link_engine(self) -> dict[str, Any]:
        return {"packet_state": self._pstate_links}
