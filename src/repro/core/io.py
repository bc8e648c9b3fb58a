"""JSON serialization of complete schedules.

A schedule document embeds its task graph and topology (so it is
self-contained and replayable), the communication model, every task
placement, and the full link bookings — slot queues for BA/OIHSA, fluid
bookings for BBSA.  ``schedule_from_json(schedule_to_json(s))`` passes
``validate_schedule`` whenever ``s`` did.
"""

from __future__ import annotations

import json
from array import array
from typing import Any

from repro.core.schedule import Schedule
from repro.exceptions import SerializationError
from repro.linksched.bandwidth import (
    BandwidthLinkState,
    Cumulative,
    TransferBooking,
)
from repro.linksched.commmodel import CommModel
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.io import topology_from_json, topology_to_json
from repro.procsched.state import TaskPlacement
from repro.taskgraph.io import graph_from_json, graph_to_json

_FORMAT = "repro.schedule/v1"


def _edge_key(e: Any) -> tuple[int, int]:
    src, dst = e
    return (int(src), int(dst))


def schedule_to_json(schedule: Schedule) -> str:
    doc: dict[str, Any] = {
        "format": _FORMAT,
        "algorithm": schedule.algorithm,
        "comm": {"mode": schedule.comm.mode, "hop_delay": schedule.comm.hop_delay},
        "graph": json.loads(graph_to_json(schedule.graph)),
        "network": json.loads(topology_to_json(schedule.net)),
        "placements": [
            {
                "task": pl.task,
                "processor": pl.processor,
                "start": pl.start,
                "finish": pl.finish,
            }
            for pl in schedule.placements.values()
        ],
        "edge_arrivals": [
            {"src": k[0], "dst": k[1], "arrival": v}
            for k, v in schedule.edge_arrivals.items()
        ],
    }
    if schedule.link_state is not None:
        state = schedule.link_state
        doc["link_state"] = {
            "routes": [
                {"src": k[0], "dst": k[1], "links": list(v)}
                for k, v in state.routes().items()
            ],
            "slots": {
                str(lid): [
                    {"src": s.edge[0], "dst": s.edge[1], "start": s.start, "finish": s.finish}
                    for s in state.slots(lid)
                ]
                for lid in state.used_links()
            },
        }
    if schedule.packet_state is not None:
        state = schedule.packet_state
        doc["packet_state"] = {
            "routes": [
                {"src": k[0], "dst": k[1], "links": list(v), "packets": state.packets_of(k)}
                for k, v in state.routes().items()
            ],
            "slots": {
                str(lid): [
                    {
                        "src": s.edge[0],
                        "dst": s.edge[1],
                        "packet": s.packet,
                        "start": s.start,
                        "finish": s.finish,
                    }
                    for s in state.slots(lid)
                ]
                for lid in state.used_links()
            },
        }
    if schedule.bandwidth_state is not None:
        state = schedule.bandwidth_state
        doc["bandwidth_state"] = {
            "routes": [
                {"src": k[0], "dst": k[1], "links": list(v)}
                for k, v in state.routes().items()
            ],
            "bookings": [
                {
                    "src": k[0],
                    "dst": k[1],
                    "hops": [
                        {
                            "lid": b.lid,
                            "arrival": b.arrival.points,
                            "departure": b.departure.points,
                            "usage": [
                                [u.start, u.finish, u.fraction] for u in b.usage
                            ],
                        }
                        for b in state.bookings_of(k)
                    ],
                }
                for k in state.routes()
                if state.bookings_of(k)
            ],
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def schedule_from_json(text: str) -> Schedule:
    try:
        doc: dict[str, Any] = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise SerializationError(
            f"not a {_FORMAT} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    try:
        graph = graph_from_json(json.dumps(doc["graph"]))
        net = topology_from_json(json.dumps(doc["network"]))
        comm = CommModel(doc["comm"]["mode"], float(doc["comm"]["hop_delay"]))
        placements = {
            int(p["task"]): TaskPlacement(
                int(p["task"]), int(p["processor"]), float(p["start"]), float(p["finish"])
            )
            for p in doc["placements"]
        }
        arrivals = {
            (int(a["src"]), int(a["dst"])): float(a["arrival"])
            for a in doc["edge_arrivals"]
        }
        link_state = None
        if "link_state" in doc:
            link_state = LinkScheduleState()
            for r in doc["link_state"]["routes"]:
                link_state.record_route(
                    (int(r["src"]), int(r["dst"])), tuple(int(l) for l in r["links"])
                )
            for lid_str, slots in doc["link_state"]["slots"].items():
                lid = int(lid_str)
                for i, s in enumerate(slots):
                    link_state.insert(
                        lid,
                        i,
                        TimeSlot(
                            (int(s["src"]), int(s["dst"])),
                            float(s["start"]),
                            float(s["finish"]),
                        ),
                    )
        packet_state = None
        if "packet_state" in doc:
            from repro.linksched.packets import PacketLinkState, PacketSlot

            packet_state = PacketLinkState()
            for r in doc["packet_state"]["routes"]:
                packet_state.restore_route(
                    (int(r["src"]), int(r["dst"])),
                    tuple(int(l) for l in r["links"]),
                    int(r["packets"]),
                )
            for lid_str, slots in doc["packet_state"]["slots"].items():
                packet_state.restore_slots(
                    int(lid_str),
                    [
                        PacketSlot(
                            (int(s["src"]), int(s["dst"])),
                            int(s["packet"]),
                            float(s["start"]),
                            float(s["finish"]),
                        )
                        for s in slots
                    ],
                )
        bandwidth_state = None
        if "bandwidth_state" in doc:
            bandwidth_state = BandwidthLinkState()
            for r in doc["bandwidth_state"]["routes"]:
                bandwidth_state.restore_route(
                    (int(r["src"]), int(r["dst"])), tuple(int(l) for l in r["links"])
                )
            for b in doc["bandwidth_state"]["bookings"]:
                key = (int(b["src"]), int(b["dst"]))
                hops = []
                for hop in b["hops"]:
                    hops.append(
                        TransferBooking(
                            key,
                            int(hop["lid"]),
                            Cumulative([(float(t), float(v)) for t, v in hop["arrival"]]),
                            Cumulative([(float(t), float(v)) for t, v in hop["departure"]]),
                            array(
                                "d",
                                [float(x) for t0, t1, f in hop["usage"] for x in (t0, t1, f)],
                            ),
                        )
                    )
                bandwidth_state.restore_booking(key, hops)
        return Schedule(
            algorithm=str(doc["algorithm"]),
            graph=graph,
            net=net,
            placements=placements,
            edge_arrivals=arrivals,
            link_state=link_state,
            bandwidth_state=bandwidth_state,
            packet_state=packet_state,
            comm=comm,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed schedule document: {exc}") from exc
