"""Basic insertion edge scheduling (Sinnen & Sousa's BA, paper Section 3).

For each link of the route in order, the edge is placed into the earliest
idle gap compatible with the link causality condition:

- its (virtual) start on link ``m`` is >= its start on link ``m-1``,
- its finish on link ``m`` is >= its finish on link ``m-1``
  (Lemma 1: ``t_f(e, L_m) = max(t_f(e, L_{m-1}), t_es + int)``).

Existing slots are never moved.
"""

from __future__ import annotations

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.topology import Route
from repro.obs import OBS
from repro.types import EdgeKey


def schedule_edge_basic(
    state: LinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Book ``edge`` on every link of ``route``; return its arrival time.

    ``ready_time`` is when the data leaves the source processor (the source
    task's finish time).  Zero-cost edges and empty routes (same-processor
    communication) occupy no link and arrive at ``ready_time``.  ``comm``
    selects the switching mode / hop delay (paper default: cut-through,
    no delay).
    """
    if ready_time < 0:
        raise SchedulingError(f"negative ready time {ready_time}")
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    if not route or cost <= 0:
        state.record_route(edge, ())
        return ready_time
    state.record_route(edge, tuple(l.lid for l in route))
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    for link in route:
        index, start, finish = state.find_gap(link.lid, cost / link.speed, est, min_finish)
        state.insert(link.lid, index, TimeSlot(edge, start, finish))
        est, min_finish = comm.next_constraints(start, finish)
    if OBS.on:
        OBS.metrics.counter("insertion.probes").inc(len(route))
        OBS.metrics.counter("insertion.edges_scheduled").inc()
        OBS.emit(
            "edge_scheduled",
            t=finish,
            edge=list(edge),
            policy="basic",
            links=[l.lid for l in route],
            ready=ready_time,
            arrival=finish,
        )
    return finish

