"""Full-schedule validation: every model invariant in one auditable place.

Checks performed on any :class:`~repro.core.schedule.Schedule`:

1. every task placed exactly once, on a processor, with duration ``w/s``;
2. processor non-preemption (no overlapping task slots);
3. precedence: a task starts no earlier than every in-edge's arrival, and an
   arrival is no earlier than the source task's finish;
4. same-processor edges arrive exactly at the source's finish (empty route);
5. cross-processor edges have a route that actually connects the two
   processors;
6. slot-based schedules (BA/OIHSA): link non-preemption, slot durations
   ``c/s``, and the link causality condition along every route;
7. bandwidth schedules (BBSA): per-link usage never exceeds capacity,
   per-hop departures never outrun arrivals (causality), and every hop
   conserves the full communication volume.

Tolerance: see :data:`repro.linksched.causality.CAUSALITY_EPS`.
"""

from __future__ import annotations

from repro.core.schedule import Schedule
from repro.exceptions import ValidationError
from repro.linksched.causality import (
    CAUSALITY_EPS,
    check_route_causality,
    check_route_connectivity,
)


def validate_schedule(schedule: Schedule, eps: float = CAUSALITY_EPS) -> None:
    """Raise :class:`ValidationError` if any invariant is violated."""
    graph, net = schedule.graph, schedule.net
    placements = schedule.placements

    # 1. placements cover the graph, on processors, with the right durations.
    for task in graph.tasks():
        if task.tid not in placements:
            raise ValidationError(f"task {task.tid} is not placed")
        pl = placements[task.tid]
        vertex = net.vertex(pl.processor)
        if not vertex.is_processor:
            raise ValidationError(f"task {task.tid} placed on non-processor {pl.processor}")
        expected = task.weight / vertex.speed
        if abs((pl.finish - pl.start) - expected) > eps:
            raise ValidationError(
                f"task {task.tid}: duration {pl.finish - pl.start} != w/s = {expected}"
            )
        if pl.start < -eps:
            raise ValidationError(f"task {task.tid} starts before time 0: {pl.start}")
    extra = set(placements) - {t.tid for t in graph.tasks()}
    if extra:
        raise ValidationError(f"placements for unknown tasks {sorted(extra)}")

    # 2. processor non-preemption.
    by_proc: dict[int, list] = {}
    for pl in placements.values():
        by_proc.setdefault(pl.processor, []).append(pl)
    for vid, pls in by_proc.items():
        pls.sort(key=lambda p: p.start)
        for a, b in zip(pls, pls[1:]):
            if a.finish > b.start + eps:
                raise ValidationError(
                    f"tasks {a.task} and {b.task} overlap on processor {vid}: "
                    f"[{a.start}, {a.finish}) vs [{b.start}, {b.finish})"
                )

    # 3-5. per-edge checks.
    for e in graph.edges():
        src_pl, dst_pl = placements[e.src], placements[e.dst]
        arrival = schedule.edge_arrivals.get(e.key)
        if arrival is None:
            raise ValidationError(f"edge {e.key} has no recorded arrival time")
        if arrival < src_pl.finish - eps:
            raise ValidationError(
                f"edge {e.key} arrives at {arrival}, before its source finishes "
                f"at {src_pl.finish}"
            )
        if dst_pl.start < arrival - eps:
            raise ValidationError(
                f"task {e.dst} starts at {dst_pl.start}, before edge {e.key} "
                f"arrives at {arrival}"
            )
        same_proc = src_pl.processor == dst_pl.processor
        if same_proc and arrival > src_pl.finish + eps:
            raise ValidationError(
                f"same-processor edge {e.key} arrives at {arrival} != source "
                f"finish {src_pl.finish} (local communication is free)"
            )
        if (
            schedule.link_state is None
            and schedule.bandwidth_state is None
            and schedule.packet_state is None
        ):
            continue  # classic model: no routes to check
        route = schedule.edge_route(e.key)
        if same_proc or e.cost <= 0:
            if route and same_proc:
                raise ValidationError(f"same-processor edge {e.key} has route {route}")
        elif not route:
            raise ValidationError(
                f"cross-processor edge {e.key} ({src_pl.processor} -> "
                f"{dst_pl.processor}) has an empty route"
            )
        if route:
            check_route_connectivity(net, route, src_pl.processor, dst_pl.processor)

    # 6. slot-based link invariants.
    if schedule.link_state is not None:
        _validate_link_slots(schedule, eps)

    # 7. bandwidth (fluid) invariants.
    if schedule.bandwidth_state is not None:
        _validate_bandwidth(schedule, eps)

    # 8. packet-switched invariants.
    if schedule.packet_state is not None:
        _validate_packets(schedule, eps)


def _validate_link_slots(schedule: Schedule, eps: float) -> None:
    state = schedule.link_state
    assert state is not None
    graph, net = schedule.graph, schedule.net

    # Link non-preemption + queue sortedness.
    for lid in state.used_links():
        slots = state.slots(lid)
        for a, b in zip(slots, slots[1:]):
            if a.finish > b.start + eps:
                raise ValidationError(
                    f"slots for edges {a.edge} and {b.edge} overlap on link {lid}"
                )

    # Causality per edge, and the last-link finish must equal the arrival.
    for e in graph.edges():
        if not state.has_route(e.key):
            continue
        route = state.route_of(e.key)
        if not route:
            continue
        src_finish = schedule.placements[e.src].finish
        check_route_causality(
            state, net, e.key, e.cost, src_finish, eps, comm=schedule.comm
        )
        last = state.slot_of(e.key, route[-1])
        arrival = schedule.edge_arrivals[e.key]
        if abs(last.finish - arrival) > eps:
            raise ValidationError(
                f"edge {e.key}: recorded arrival {arrival} != last-link finish "
                f"{last.finish}"
            )


def _validate_bandwidth(schedule: Schedule, eps: float) -> None:
    state = schedule.bandwidth_state
    assert state is not None
    graph = schedule.graph

    # Capacity: the committed profile of every link stays <= 1.  Each used
    # link is checked once, at its first booking in edge order.
    checked: set[int] = set()
    for e in graph.edges():
        for booking in state.bookings_of(e.key):
            if booking.lid in checked:
                continue
            checked.add(booking.lid)
            prof = state.profile(booking.lid)
            if prof.max_used() > 1.0 + 1e-6:
                raise ValidationError(
                    f"link {booking.lid} over-committed: used {prof.max_used()}"
                )

    cut_through = schedule.comm.mode == "cut-through"
    hop_delay = schedule.comm.hop_delay
    for e in graph.edges():
        if not state.has_route(e.key):
            continue
        route = state.route_of(e.key)
        if not route:
            continue
        bookings = state.bookings_of(e.key)
        if tuple(b.lid for b in bookings) != route:
            raise ValidationError(
                f"edge {e.key}: bookings {[b.lid for b in bookings]} do not match "
                f"route {route}"
            )
        src_finish = schedule.placements[e.src].finish
        tol = max(eps, 1e-6 * e.cost)
        prev_dep = None
        prev_flat: list[float] = []
        for booking in bookings:
            departure = booking.departure
            dep_flat = departure.flat()
            # Volume conservation on every hop (``dep_flat[-1]`` is the
            # final volume, ``dep_flat[0]`` the start time).
            if abs(dep_flat[-1] - e.cost) > tol:
                raise ValidationError(
                    f"edge {e.key} on link {booking.lid}: forwarded "
                    f"{departure.final_volume} of {e.cost}"
                )
            # Causality: departures never outrun arrivals, checked at every
            # departure breakpoint.  Under cut-through without a hop delay
            # the arrival is the previous hop's departure, already unpacked.
            inflow = booking.arrival
            in_flat = prev_flat if inflow is prev_dep else inflow.flat()
            excess = _first_excess(dep_flat, in_flat, 0.0, tol)
            if excess is not None:
                t, v, arrived = excess
                raise ValidationError(
                    f"edge {e.key} on link {booking.lid}: forwarded {v} by "
                    f"t={t} but only {arrived} had arrived"
                )
            if prev_dep is not None:
                if cut_through:
                    # Data on this hop may not outrun the previous hop's
                    # departure (shifted by the hop delay).  When the arrival
                    # *is* that departure, unshifted, the pass above already
                    # made exactly these comparisons.
                    if inflow is not prev_dep or hop_delay:
                        excess = _first_excess(dep_flat, prev_flat, hop_delay, tol)
                        if excess is not None:
                            t, v, _ = excess
                            raise ValidationError(
                                f"edge {e.key} on link {booking.lid}: forwarded "
                                f"{v} by t={t}, outrunning the previous hop"
                            )
                else:
                    lower = prev_dep.finish_time() + hop_delay
                    if departure.start_time < lower - eps:
                        raise ValidationError(
                            f"edge {e.key} on link {booking.lid}: store-and-forward "
                            f"hop starts at {departure.start_time}, before "
                            f"the previous hop completes at {lower}"
                        )
            prev_dep = departure
            prev_flat = dep_flat
            if dep_flat[0] < src_finish - eps:
                raise ValidationError(
                    f"edge {e.key} on link {booking.lid}: transfer begins at "
                    f"{departure.start_time}, before the source finishes "
                    f"at {src_finish}"
                )
        arrival = schedule.edge_arrivals[e.key]
        if abs(bookings[-1].departure.finish_time() - arrival) > eps:
            raise ValidationError(
                f"edge {e.key}: recorded arrival {arrival} != final hop finish "
                f"{bookings[-1].departure.finish_time()}"
            )


def _first_excess(
    flat: list[float],
    bound: list[float],
    delay: float,
    tol: float,
) -> tuple[float, float, float] | None:
    """First breakpoint ``(t, v)`` with ``v > value(t - delay) + tol``.

    ``flat`` and ``bound`` are two curves' breakpoints as
    :meth:`~repro.linksched.bandwidth.Cumulative.flat` gives them
    (``t0, v0, t1, v1, ...``), and ``value`` is ``bound``'s
    :meth:`~repro.linksched.bandwidth.Cumulative.value`.  Returns
    ``(t, v, value(t - delay))``, or ``None`` if there is none.  The
    breakpoints' times never decrease, so one forward pointer replaces a
    bisect per point: ``j`` always indexes the time of the first ``bound``
    point after ``t - delay`` (twice ``bisect_right`` over its times), and
    the value is computed by the same expression as ``Cumulative.value``.
    The piece's end points are read only when ``j`` moves; while it stays,
    only ``x`` changes (and before the first or after the last point the
    value does not change at all).
    """
    n = len(bound)
    j = 0
    value = 0.0
    t0 = v0 = t1 = v1 = 0.0
    it = iter(flat)
    for t, v in zip(it, it):
        x = t - delay
        if j < n and bound[j] <= x:
            j += 2
            while j < n and bound[j] <= x:
                j += 2
            if j == n:
                value = bound[-1]
            else:
                t0 = bound[j - 2]
                v0 = bound[j - 1]
                t1 = bound[j]
                v1 = bound[j + 1]
                value = v0 + (v1 - v0) * (x - t0) / (t1 - t0)
        elif 0 < j < n:
            value = v0 + (v1 - v0) * (x - t0) / (t1 - t0)
        if v > value + tol:
            return t, v, value
    return None


def _validate_packets(schedule: Schedule, eps: float) -> None:
    state = schedule.packet_state
    assert state is not None
    graph, net = schedule.graph, schedule.net

    # Link non-preemption across all packets.
    for lid in state.used_links():
        slots = sorted(state.slots(lid), key=lambda s: s.start)
        for a, b in zip(slots, slots[1:]):
            if a.finish > b.start + eps:
                raise ValidationError(
                    f"packet slots {a.edge}#{a.packet} and {b.edge}#{b.packet} "
                    f"overlap on link {lid}"
                )

    for e in graph.edges():
        if not state.has_route(e.key):
            continue
        route = state.route_of(e.key)
        if not route:
            continue
        n_packets = state.packets_of(e.key)
        if n_packets < 1:
            raise ValidationError(f"edge {e.key} routed but has no packets")
        packet_cost = e.cost / n_packets
        src_finish = schedule.placements[e.src].finish
        prev_link_finish: list[float] | None = None
        for lid in route:
            link = net.link(lid)
            slots = state.slots_of(e.key, lid)
            if [s.packet for s in slots] != list(range(n_packets)):
                raise ValidationError(
                    f"edge {e.key} on link {lid}: packets "
                    f"{[s.packet for s in slots]} != 0..{n_packets - 1}"
                )
            expected = packet_cost / link.speed
            for i, s in enumerate(slots):
                if abs(s.duration - expected) > eps:
                    raise ValidationError(
                        f"edge {e.key}#{s.packet} on link {lid}: duration "
                        f"{s.duration} != c/(k*s) = {expected}"
                    )
                # FIFO within the edge on this link.
                if i > 0 and s.start < slots[i - 1].finish - eps:
                    raise ValidationError(
                        f"edge {e.key} packets out of order on link {lid}"
                    )
                # Store-and-forward per packet across hops.
                lower = src_finish if prev_link_finish is None else prev_link_finish[i]
                if s.start < lower - eps:
                    raise ValidationError(
                        f"edge {e.key}#{s.packet} starts on link {lid} at "
                        f"{s.start}, before it fully crossed the previous hop "
                        f"at {lower}"
                    )
            prev_link_finish = [s.finish for s in slots]
        assert prev_link_finish is not None
        arrival = schedule.edge_arrivals[e.key]
        if abs(prev_link_finish[-1] - arrival) > eps:
            raise ValidationError(
                f"edge {e.key}: recorded arrival {arrival} != last packet's "
                f"last-hop finish {prev_link_finish[-1]}"
            )
