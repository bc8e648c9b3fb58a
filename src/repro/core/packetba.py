"""PBA — packet-switched Basic Algorithm.

BA's framework (BFS minimal routing, blind-EFT processor choice) on the
packet-switched link engine of :mod:`repro.linksched.packets`: every
communication is divided into ``n_packets`` store-and-forward packets
pipelined along the route.  Bridges the gap the paper points out between
BA's circuit-switched idealization and real packet networks; the packet
count is the knob (`benchmarks/bench_packet_pipelining.py` sweeps it).
"""

from __future__ import annotations

from repro.core.base import ContentionScheduler
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.linksched.packets import PacketLinkState
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology, Route, Vertex
from repro.procsched.state import ProcessorState
from repro.taskgraph.graph import TaskGraph
from repro.types import EdgeKey, TaskId


class PacketBAScheduler(ContentionScheduler):
    """BA with packetized (store-and-forward, pipelined) communication."""

    name = "packet-ba"

    def __init__(self, *, n_packets: int = 4, hop_delay: float = 0.0) -> None:
        if n_packets < 1:
            raise SchedulingError(f"need at least one packet, got {n_packets}")
        self.n_packets = n_packets
        self.hop_delay = hop_delay
        self._pstate_links = PacketLinkState()
        self._arrivals: dict[EdgeKey, float] = {}

    def _begin(self, graph: TaskGraph, net: NetworkTopology) -> None:
        self._pstate_links = PacketLinkState()
        self._arrivals = {}

    def _bfs(self, net: NetworkTopology, src: int, dst: int) -> Route:
        # Memoized by the topology's shared route table.
        return bfs_route(net, src, dst)

    def _place_task(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        tid: TaskId,
        procs: list[Vertex],
        pstate: ProcessorState,
    ) -> None:
        weight = graph.task(tid).weight
        latest = max(
            (pstate.placement(p).finish for p in graph.predecessors(tid)),
            default=0.0,
        )
        chosen = self._earliest_finish(procs, pstate, weight, latest, {})
        t_dr = 0.0
        for e in sorted(graph.in_edges(tid), key=lambda e: e.src):
            src_pl = pstate.placement(e.src)
            if src_pl.processor == chosen.vid:
                arrival = src_pl.finish
                self._pstate_links.schedule_edge(
                    e.key, [], e.cost, src_pl.finish, self.n_packets
                )
            else:
                route = self._bfs(net, src_pl.processor, chosen.vid)
                arrival = self._pstate_links.schedule_edge(
                    e.key, route, e.cost, src_pl.finish, self.n_packets,
                    self.hop_delay,
                )
            self._arrivals[e.key] = arrival
            t_dr = max(t_dr, arrival)
        self._place_on(pstate, tid, chosen, weight, t_dr, insertion=False)

    def _finish(
        self, graph: TaskGraph, net: NetworkTopology, pstate: ProcessorState
    ) -> Schedule:
        return Schedule(
            algorithm=self.name,
            graph=graph,
            net=net,
            placements=pstate.placements(),
            edge_arrivals=dict(self._arrivals),
            packet_state=self._pstate_links,
        )
