"""Link-causality condition checks (paper Section 2.2).

For an edge routed over ``L1 .. Ll``, both its (virtual) start times and its
finish times must be non-decreasing along the route; each slot's duration
must equal ``c(e) / s(L)``.  These checks are used by the schedule validator
and by property-based tests after every OIHSA deferral.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.exceptions import ValidationError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.state import LinkScheduleState
from repro.network.topology import NetworkTopology
from repro.types import EdgeKey

#: Validation tolerance: scheduling decisions use exact-ish float arithmetic
#: with an EPS fuzz per deferral, so validators allow a slightly wider band.
CAUSALITY_EPS = 1e-6


def check_route_causality(
    state: LinkScheduleState,
    net: NetworkTopology,
    edge: EdgeKey,
    cost: float,
    ready_time: float | None = None,
    eps: float = CAUSALITY_EPS,
    comm: CommModel = CUT_THROUGH,
) -> None:
    """Raise :class:`ValidationError` if ``edge``'s booking violates the model."""
    route = state.route_of(edge)
    min_start = -float("inf")
    min_finish = -float("inf")
    for lid in route:
        link = net.link(lid)
        slot = state.slot_of(edge, lid)
        expected = cost / link.speed
        if abs(slot.duration - expected) > eps:
            raise ValidationError(
                f"edge {edge} on link {lid}: slot duration {slot.duration} != "
                f"c/s = {expected}"
            )
        if slot.start < min_start - eps:
            raise ValidationError(
                f"edge {edge} on link {lid}: start {slot.start} violates the "
                f"{comm.mode} causality bound {min_start}"
            )
        if slot.finish < min_finish - eps:
            raise ValidationError(
                f"edge {edge} on link {lid}: finish {slot.finish} precedes the "
                f"previous route link's bound {min_finish}"
            )
        min_start, min_finish = comm.next_constraints(slot.start, slot.finish)
    if ready_time is not None and route:
        first = state.slot_of(edge, route[0])
        if first.start < ready_time - eps:
            raise ValidationError(
                f"edge {edge} starts on link {route[0]} at {first.start}, before "
                f"its data is ready at {ready_time}"
            )


def check_route_connectivity(
    net: NetworkTopology,
    route: tuple[int, ...],
    src_proc: int,
    dst_proc: int,
) -> None:
    """Verify a link-id route actually walks from ``src_proc`` to ``dst_proc``.

    Follows each link from the current vertex through
    :meth:`~repro.network.topology.NetworkTopology.link_heads`; for buses
    the next vertex is ambiguous, so any member reachable by the *next* link
    (or the destination, for the last hop) is accepted.  An unknown link or
    source vertex raises :class:`~repro.exceptions.TopologyError`.
    """
    if not route:
        if src_proc != dst_proc:
            raise ValidationError(
                f"empty route but distinct endpoints {src_proc} -> {dst_proc}"
            )
        return
    heads = net.link_heads()
    current: Collection[int] = (src_proc,)
    for i, lid in enumerate(route):
        if len(current) == 1:
            (u,) = current
            nxt: Collection[int] = heads.get((u, lid), ())
        else:  # past a bus: every member the link leaves from
            nxt = {v for u in current for v in heads.get((u, lid), ())}
        if not nxt:
            # An unknown link or vertex is a TopologyError, not a bad route.
            net.link(lid)
            for u in sorted(current):
                net.vertex(u)
            raise ValidationError(
                f"route of {src_proc}->{dst_proc}: link {lid} (hop {i}) does not "
                f"leave any reachable vertex {sorted(current)}"
            )
        current = nxt
    if dst_proc not in current:
        raise ValidationError(
            f"route {route} from {src_proc} ends at {sorted(current)}, "
            f"not at destination {dst_proc}"
        )
