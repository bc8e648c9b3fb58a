"""Packet-switched link scheduling.

The paper notes (Section 2.2) that BA "does not consider the possible
division of communication into packets" and therefore assumes circuit
switching.  This module supplies the missing engine: an edge's communication
is split into ``n_packets`` equal packets, each forwarded
store-and-forward-style (a packet must be fully received before it is
forwarded — this is packet switching), pipelined across the route:

- packet ``p`` may enter link ``m`` once it has completely crossed link
  ``m-1`` (plus the hop delay),
- packets of one edge stay in order on every link (FIFO — no resequencing),
- links remain non-preemptive: packet slots on a link never overlap.

With one packet this degenerates to store-and-forward messaging; as the
packet count grows, the arrival time approaches the cut-through (wormhole)
limit — which is why the paper's circuit-switched model is the natural
``n_packets -> inf`` idealization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SchedulingError
from repro.linksched.slots import find_gap_indexed
from repro.network.topology import Route
from repro.types import EdgeKey, LinkId


@dataclass(frozen=True, slots=True)
class PacketSlot:
    """Occupation of a link by one packet of one edge."""

    edge: EdgeKey
    packet: int
    start: float
    finish: float

    def __post_init__(self) -> None:
        if not (self.finish >= self.start >= 0) or self.packet < 0:
            raise SchedulingError(
                f"invalid packet slot {self.edge}#{self.packet}: "
                f"[{self.start}, {self.finish})"
            )

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class PacketLinkState:
    """Per-link packet queues plus per-edge route bookkeeping.

    Each queue is sorted by start and keeps its slots' starts and finishes
    in parallel lists, as :class:`repro.linksched.state.LinkScheduleState`
    does, for the bisecting gap search
    :func:`repro.linksched.slots.find_gap_indexed`.
    """

    _queues: dict[LinkId, list[PacketSlot]] = field(default_factory=dict)
    #: derived from ``_queues`` (``_starts[lid][i] == _queues[lid][i].start``)
    _starts: dict[LinkId, list[float]] = field(default_factory=dict, init=False)
    _finishes: dict[LinkId, list[float]] = field(default_factory=dict, init=False)
    _routes: dict[EdgeKey, tuple[LinkId, ...]] = field(default_factory=dict)
    _packets: dict[EdgeKey, int] = field(default_factory=dict)

    def slots(self, lid: LinkId) -> list[PacketSlot]:
        return self._queues.get(lid, [])

    def route_of(self, edge: EdgeKey) -> tuple[LinkId, ...]:
        try:
            return self._routes[edge]
        except KeyError:
            raise SchedulingError(f"edge {edge} has no recorded route") from None

    def has_route(self, edge: EdgeKey) -> bool:
        return edge in self._routes

    def routes(self) -> dict[EdgeKey, tuple[LinkId, ...]]:
        return dict(self._routes)

    def packets_of(self, edge: EdgeKey) -> int:
        return self._packets.get(edge, 0)

    def restore_route(
        self, edge: EdgeKey, links: tuple[LinkId, ...], n_packets: int
    ) -> None:
        """Re-register a deserialized edge (route + packet count) verbatim."""
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already scheduled")
        self._routes[edge] = tuple(links)
        self._packets[edge] = int(n_packets)

    def restore_slots(self, lid: LinkId, slots: list[PacketSlot]) -> None:
        """Install a deserialized per-link packet queue verbatim (in order)."""
        self._queues[lid] = list(slots)
        self._starts[lid] = [s.start for s in slots]
        self._finishes[lid] = [s.finish for s in slots]

    def slots_of(self, edge: EdgeKey, lid: LinkId) -> list[PacketSlot]:
        """This edge's packet slots on one link, in packet order."""
        out = [s for s in self.slots(lid) if s.edge == edge]
        out.sort(key=lambda s: s.packet)
        return out

    def used_links(self) -> list[LinkId]:
        return [lid for lid, q in self._queues.items() if q]

    def schedule_edge(
        self,
        edge: EdgeKey,
        route: Route,
        cost: float,
        ready_time: float,
        n_packets: int,
        hop_delay: float = 0.0,
    ) -> float:
        """Book all packets of ``edge`` along ``route``; return arrival time."""
        if n_packets < 1:
            raise SchedulingError(f"need at least one packet, got {n_packets}")
        if ready_time < 0:
            raise SchedulingError(f"negative ready time {ready_time}")
        if hop_delay < 0:
            raise SchedulingError(f"negative hop delay {hop_delay}")
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already scheduled")
        if cost < 0:
            raise SchedulingError(f"negative communication cost {cost}")
        if not route or cost <= 0:
            self._routes[edge] = ()
            self._packets[edge] = 0
            return ready_time
        self._routes[edge] = tuple(l.lid for l in route)
        self._packets[edge] = n_packets
        packet_cost = cost / n_packets
        lanes = []  # (queue, starts, finishes, packet duration) per route link
        for link in route:
            lid = link.lid
            if lid not in self._queues:
                self._queues[lid], self._starts[lid], self._finishes[lid] = [], [], []
            lanes.append((
                self._queues[lid],
                self._starts[lid],
                self._finishes[lid],
                packet_cost / link.speed,
            ))
        # prev_on_link[m] = finish of the previous packet on route link m.
        prev_on_link = [0.0] * len(route)
        arrival = ready_time
        for p in range(n_packets):
            upstream = ready_time  # packet fully available at the source
            for m, (queue, starts, finishes, duration) in enumerate(lanes):
                est = max(upstream, prev_on_link[m])
                index, start, finish = find_gap_indexed(
                    starts, finishes, duration, est
                )
                queue.insert(index, PacketSlot(edge, p, start, finish))
                starts.insert(index, start)
                finishes.insert(index, finish)
                prev_on_link[m] = finish
                upstream = finish + hop_delay  # store-and-forward per packet
            arrival = prev_on_link[-1]
        return arrival
