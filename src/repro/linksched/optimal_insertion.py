"""OIHSA's optimal insertion with deferral (paper Section 4.4).

Key idea: a slot already booked on link ``m`` for edge ``e`` may be *deferred*
(started later) without violating causality, because ``e``'s booking on its
**next** route link is unchanged — the slack is (Lemma 2)::

    dt(e, L_m) = min( t_s(e, NL) - t_s(e, L_m),  t_f(e, NL) - t_f(e, L_m) )

and ``dt = 0`` when ``L_m`` is the edge's last link (deferring would delay the
already-fixed arrival).  Deferring a slot — and cascading into its successors,
which consume their own slack — opens a larger idle gap in front of it.

The insertion scan walks the queue tail -> head maintaining the paper's
``accum`` (formula (2)): the largest amount slot ``n`` can slip given its own
``dt`` and the room behind it.  A gap in front of slot ``n`` is feasible for
the new transfer iff (formula (3))::

    max(t_f(slot n-1), est) + duration'   <=   t_s(slot n) + accum_n

(where duration' accounts for the min-finish causality bound).  The head-most
feasible gap gives the earliest start (Theorem 1); committing shifts the
affected slots right by exactly the overflow, which the scan guaranteed each
can absorb.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.topology import Link, Route
from repro.obs import OBS
from repro.types import EPS, EdgeKey


def deferrable_time(
    state: LinkScheduleState,
    lid: int,
    slot: TimeSlot,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Lemma 2: how far ``slot`` may slip on link ``lid`` without breaking causality.

    Cut-through: bounded by the next-link slot's start *and* finish (minus
    the hop delay).  Store-and-forward: bounded by the requirement that the
    next link starts only after this one finishes.
    """
    next_lid = state.next_link_of(slot.edge, lid)
    if next_lid is None:
        return 0.0
    nxt = state.slot_of(slot.edge, next_lid)
    if comm.mode == "cut-through":
        dt = min(
            nxt.start - comm.hop_delay - slot.start,
            nxt.finish - comm.hop_delay - slot.finish,
        )
    else:
        dt = nxt.start - comm.hop_delay - slot.finish
    # Causality guarantees the slack is >= 0; clamp against float fuzz.
    return max(0.0, dt)


class OptimalPlacement(NamedTuple):
    """Result of :func:`probe_optimal`: where the new slot goes and its times."""

    index: int
    start: float
    finish: float
    #: by how much the slot currently at ``index`` must be deferred (0 if none)
    overflow: float


def probe_optimal(
    state: LinkScheduleState,
    link: Link,
    cost: float,
    est: float,
    min_finish: float = 0.0,
    comm: CommModel = CUT_THROUGH,
) -> OptimalPlacement:
    """Earliest placement on ``link`` allowing deferral of existing slots.

    Pure (no commit).  Falls back to appending after the last slot when no
    deferral-assisted gap is feasible — the append position is never better
    than a feasible insertion, so the scan keeps the head-most feasible gap.
    """
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    observing = OBS.on
    if observing:
        OBS.metrics.counter("optimal.probes").inc()
    duration = cost / link.speed
    lid = link.lid
    queue = state._queues.get(lid)
    if queue is None:
        slots, starts, finishes = (), (), ()
    else:
        slots, starts, finishes = queue.slots, queue.starts, queue.finishes
    n = len(slots)
    floor = min_finish - duration
    lo = est if est >= floor else floor  # == max(est, min_finish - duration)

    # Tail placement is always feasible.  The best candidate is tracked in
    # plain locals; the OptimalPlacement is built once on return.
    tail_prev = finishes[-1] if n else 0.0
    start = tail_prev if tail_prev > lo else lo
    best_index = n
    best_start = start
    best_finish = start + duration
    best_overflow = 0.0

    # The scan calls the Lemma-2 slack once per queued slot; inline
    # :func:`deferrable_time` (same arithmetic) with the state's internals
    # hoisted, falling back to the methods only to raise their proper errors.
    next_link_map = state._next_link
    queues = state._queues
    hop = comm.hop_delay
    cut_through = comm.mode == "cut-through"

    accum = 0.0
    for i in range(n - 1, -1, -1):
        slot_start = starts[i]
        gap_after = (starts[i + 1] - finishes[i]) if i + 1 < n else math.inf
        room = accum + gap_after
        if room == 0.0:  # repro-lint: disable=FLT001 (exact-zero fast path)
            # ``min(dt, 0.0)`` is 0.0 for any slack (clamped >= 0), so the
            # slack lookups can be skipped — back-to-back slots, the common
            # case in packed queue tails, all take this branch.
            accum = 0.0
        else:
            s = slots[i]
            try:
                next_lid = next_link_map[(s.edge, lid)]
            except KeyError:
                next_lid = state.next_link_of(s.edge, lid)  # raises the seed error
            if next_lid is None:
                dt = 0.0
            else:
                try:
                    nxt = queues[next_lid].by_edge[s.edge]
                except KeyError:
                    nxt = state.slot_of(s.edge, next_lid)  # raises the seed error
                if cut_through:
                    dt = min(
                        nxt.start - hop - s.start,
                        nxt.finish - hop - s.finish,
                    )
                else:
                    dt = nxt.start - hop - s.finish
                dt = max(0.0, dt)
            accum = dt if dt < room else room
        prev_finish = finishes[i - 1] if i > 0 else 0.0
        start = prev_finish if prev_finish > lo else lo
        finish = start + duration
        if finish <= slot_start + accum + EPS:
            overflow = finish - slot_start
            if overflow < 0.0:
                overflow = 0.0
            # Head-most feasible gap == earliest start: keep scanning.
            best_index = i
            best_start = start
            best_finish = finish
            best_overflow = overflow if overflow < accum else accum
        elif observing:
            OBS.metrics.counter("optimal.gap_rejections").inc()
            OBS.emit(
                "probe_rejected",
                t=start,
                lid=lid,
                index=i,
                needed=finish,
                available=slot_start + accum,
            )
    return OptimalPlacement(best_index, best_start, best_finish, best_overflow)


def commit_optimal(
    state: LinkScheduleState,
    link: Link,
    edge: EdgeKey,
    placement: OptimalPlacement,
    comm: CommModel = CUT_THROUGH,
) -> None:
    """Apply a placement: insert the new slot and cascade deferrals.

    Each pushed slot's individual shift is asserted against its Lemma-2 slack
    (an internal invariant; a violation means the probe's ``accum`` math and
    the commit disagree — a bug, not a user error).
    """
    slots = state.slots(link.lid)
    new_slot = TimeSlot(edge, placement.start, placement.finish)
    suffix: list[TimeSlot] = [new_slot]
    prev_finish = new_slot.finish
    observing = OBS.on
    for i in range(placement.index, len(slots)):
        s = slots[i]
        if s.start + EPS >= prev_finish:
            suffix.extend(slots[i:])
            break
        delta = prev_finish - s.start
        slack = deferrable_time(state, link.lid, s, comm)
        if delta > slack + EPS:
            raise SchedulingError(
                f"deferral cascade pushed edge {s.edge} on link {link.lid} by "
                f"{delta:.12g} but its causality slack is only {slack:.12g}"
            )
        moved = s.shifted(delta)
        suffix.append(moved)
        prev_finish = moved.finish
        if observing:
            OBS.metrics.counter("optimal.deferrals").inc()
            OBS.metrics.histogram("optimal.deferral_amount").observe(delta)
            OBS.emit(
                "slot_deferred",
                t=moved.start,
                lid=link.lid,
                edge=list(s.edge),
                for_edge=list(edge),
                delta=delta,
                slack=slack,
            )
    state.replace_suffix(link.lid, placement.index, suffix)


def _schedule_edge_optimal_fast(
    state: LinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel,
) -> float:
    """Obs-off booking loop: :func:`probe_optimal` + :func:`commit_optimal`
    fused per link.

    Bit-identical to the probe/commit pair — the scan and cascade arithmetic
    are copied verbatim (including error messages); only the per-link
    function calls, the :class:`OptimalPlacement` allocations (whose
    ``overflow`` field the commit never reads), and the observability hooks
    are dropped.

    The scan also stops at the first slot that proves every gap in front of
    it infeasible, where :func:`probe_optimal` walks on to the head (it
    reports each rejected gap).  Write ``S_i = starts[i] + accum_i``.  Since
    ``accum_i <= accum_{i+1} + starts[i+1] - finishes[i]``, exactly
    ``S_i <= S_{i+1} - (finishes[i] - starts[i]) <= S_{i+1}``: ``S`` never
    grows toward the head.  Every gap in front of slot ``j`` finishes at
    ``max(finishes[j-1], lo) + duration >= lo + duration`` (so does its
    rounded value), so once ``S_i + EPS`` falls below ``lo + duration`` no
    gap at or before ``i`` can be feasible and the head-most feasible gap is
    already known.  Rounding can let the computed ``S`` creep up toward the
    head by two roundings per slot (``starts[i+1] - finishes[i]`` and the
    ``room`` sum).  Neighbouring slots overlap by at most ``EPS`` (the
    commit leaves such a slot in place), so ``accum`` is never below
    ``-n * EPS``, and every value the scan rounds up to the stop has
    magnitude below ``2 * top`` with
    ``top = max(finishes[-1], lo + duration, n * EPS)``: each rounding is
    off by at most ``ulp(top)``.  The stop therefore compares against
    ``lo + duration`` less ``4 * (n + 1) * ulp(top)``, which covers those
    ``2n`` roundings and the few in the comparison itself.
    """
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    hop = comm.hop_delay
    cut_through = comm.mode == "cut-through"
    queues = state._queues
    next_link_map = state._next_link
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    for link in route:
        lid = link.lid
        duration = cost / link.speed
        queue = queues.get(lid)
        if queue is None:
            slots: list[TimeSlot] = []
            starts: list[float] = []
            finishes: list[float] = []
        else:
            slots, starts, finishes = queue.slots, queue.starts, queue.finishes
        n = len(slots)
        floor = min_finish - duration
        lo = est if est >= floor else floor
        tail_prev = finishes[-1] if n else 0.0
        start = tail_prev if tail_prev > lo else lo
        best_index = n
        best_start = start
        best_finish = start + duration
        # -- probe scan (see probe_optimal), stopped at the first dead gap --
        least_finish = lo + duration
        top = max(tail_prev, least_finish, n * EPS)
        cut = least_finish - 4 * (n + 1) * math.ulp(top)
        accum = 0.0
        for i in range(n - 1, -1, -1):
            slot_start = starts[i]
            gap_after = (starts[i + 1] - finishes[i]) if i + 1 < n else math.inf
            room = accum + gap_after
            if room == 0.0:  # repro-lint: disable=FLT001 (mirrors probe_optimal)
                accum = 0.0
            else:
                s = slots[i]
                try:
                    next_lid = next_link_map[(s.edge, lid)]
                except KeyError:
                    next_lid = state.next_link_of(s.edge, lid)  # raises
                if next_lid is None:
                    dt = 0.0
                else:
                    try:
                        nxt = queues[next_lid].by_edge[s.edge]
                    except KeyError:
                        nxt = state.slot_of(s.edge, next_lid)  # raises
                    if cut_through:
                        dt = min(
                            nxt.start - hop - s.start,
                            nxt.finish - hop - s.finish,
                        )
                    else:
                        dt = nxt.start - hop - s.finish
                    dt = max(0.0, dt)
                accum = dt if dt < room else room
            available = slot_start + accum + EPS
            if available < cut:
                break
            prev_finish = finishes[i - 1] if i > 0 else 0.0
            start = prev_finish if prev_finish > lo else lo
            fin = start + duration
            if fin <= available:
                best_index = i
                best_start = start
                best_finish = fin
        # -- commit cascade (see commit_optimal) --
        new_slot = TimeSlot(edge, best_start, best_finish)
        if best_index == n:
            state.replace_suffix(lid, n, [new_slot])
        else:
            suffix: list[TimeSlot] = [new_slot]
            prev_finish = best_finish
            for j in range(best_index, n):
                s = slots[j]
                if s.start + EPS >= prev_finish:
                    suffix.extend(slots[j:])
                    break
                delta = prev_finish - s.start
                slack = deferrable_time(state, lid, s, comm)
                if delta > slack + EPS:
                    raise SchedulingError(
                        f"deferral cascade pushed edge {s.edge} on link {lid} by "
                        f"{delta:.12g} but its causality slack is only {slack:.12g}"
                    )
                moved = s.shifted(delta)
                suffix.append(moved)
                prev_finish = moved.finish
            state.replace_suffix(lid, best_index, suffix)
        finish = best_finish
        if cut_through:
            est = best_start + hop
            min_finish = finish + hop
        else:
            est = finish + hop
            min_finish = 0.0
    return finish


def schedule_edge_optimal(
    state: LinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Book ``edge`` along ``route`` with optimal insertion; return arrival time."""
    if ready_time < 0:
        raise SchedulingError(f"negative ready time {ready_time}")
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    if not route or cost <= 0:
        state.record_route(edge, ())
        return ready_time
    state.record_route(edge, tuple(l.lid for l in route))
    if not OBS.on:
        return _schedule_edge_optimal_fast(state, edge, route, cost, ready_time, comm)
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    # ``comm.next_constraints`` inlined with the model's fields hoisted out of
    # the loop (same arithmetic — see CommModel.next_constraints).
    hop = comm.hop_delay
    cut_through = comm.mode == "cut-through"
    for link in route:
        placement = probe_optimal(state, link, cost, est, min_finish, comm)
        commit_optimal(state, link, edge, placement, comm)
        finish = placement.finish
        if cut_through:
            est = placement.start + hop
            min_finish = finish + hop
        else:
            est = finish + hop
            min_finish = 0.0
    OBS.metrics.counter("insertion.edges_scheduled").inc()
    OBS.emit(
        "edge_scheduled",
        t=finish,
        edge=list(edge),
        policy="optimal",
        links=[l.lid for l in route],
        ready=ready_time,
        arrival=finish,
    )
    return finish
