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
from typing import Sequence

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.topology import Route
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


def _cascade_fits(
    state: LinkScheduleState,
    lid: int,
    slots: Sequence[TimeSlot],
    index: int,
    finish: float,
    comm: CommModel,
) -> bool:
    """Whether the deferral cascade of a new slot ending at ``finish`` at
    ``index`` stays within every pushed slot's Lemma-2 slack.

    A dry run of :func:`schedule_edge_optimal`'s commit cascade, same
    arithmetic and same test: it returns False exactly when committing that
    placement would raise.
    """
    prev_finish = finish
    for j in range(index, len(slots)):
        s = slots[j]
        if s.start + EPS >= prev_finish:
            return True
        delta = prev_finish - s.start
        if delta > deferrable_time(state, lid, s, comm) + EPS:
            return False
        prev_finish = s.finish + delta  # the shifted slot's finish
    return True


def _abut(run: list[TimeSlot], start: float) -> None:
    """Clip the finish of ``run[-1]`` back to ``start`` if it overruns it.

    The commit puts each slot at its predecessor's finish, but the two times
    come out of different roundings.  A new slot's finish can overrun, by a
    residue within ``EPS``, the start of an unpushed successor it abuts in
    exact arithmetic (the cascade stops there), and a pushed slot's ``start
    + delta`` can round below its predecessor's finish.  Clipping that
    finish keeps the queue strictly disjoint.  Every other time the commit
    computes (the arrival, the next link's constraints, the cascade's
    ``prev_finish``) keeps its unclipped value, so no placement changes.
    """
    last = run[-1]
    if last.start <= start < last.finish:
        run[-1] = TimeSlot(last.edge, last.start, start)


def _rounding_slop(n: int, tail_finish: float, least_finish: float) -> float:
    """Rounding guard of one optimal-insertion scan over ``n`` queued slots.

    In exact arithmetic a gap the scan admits with margin ``m`` leaves every
    slot its cascade pushes at least ``m`` inside its slack, and the scan's
    stop is exact (see :func:`schedule_edge_optimal`).  The computed
    tests differ from the exact ones by at most ``4 * (n + 1)`` roundings:
    two per slot in the ``accum`` chain, two per pushed slot, and a few in
    the comparisons (the slacks are the same expression in scan and
    cascade).  With ``top = max(tail_finish, least_finish, n * EPS)``, the
    values near a tight test lie below ``8 * top`` (queued times below
    ``2 * top``, since neighbouring slots overlap by at most ``EPS``; a
    candidate finish below ``3 * top``; a deferral or a pushed finish below
    ``8 * top``), so each rounding is off by at most
    ``ulp(8 * top) / 2 = 4 * ulp(top)``.  A larger guard only costs time:
    the scan stops later, and more admitted gaps get a cascade dry run.
    """
    top = max(tail_finish, least_finish, n * EPS)
    return 16 * (n + 1) * math.ulp(top)


def schedule_edge_optimal(
    state: LinkScheduleState,
    edge: EdgeKey,
    route: Route,
    cost: float,
    ready_time: float,
    comm: CommModel = CUT_THROUGH,
) -> float:
    """Book ``edge`` along ``route`` with optimal insertion; return arrival time.

    Per link, a tail -> head scan finds the head-most feasible gap (formula
    (3)), which gives the earliest start (Theorem 1); the commit then
    inserts the new slot and shifts the slots behind it right by exactly
    the overflow, each within its Lemma-2 slack.  Tail placement is always
    feasible, so the scan starts from it.

    The scan stops at the first slot that proves every gap in front of it
    infeasible.  Write ``S_i = starts[i] + accum_i``.  Since ``accum_i <=
    accum_{i+1} + starts[i+1] - finishes[i]``, exactly ``S_i <= S_{i+1} -
    (finishes[i] - starts[i]) <= S_{i+1}``: ``S`` never grows toward the
    head.  Every gap in front of slot ``j`` finishes at ``max(finishes[j-1],
    lo) + duration >= lo + duration`` (so does its rounded value), so once
    ``S_i + EPS`` falls below ``lo + duration`` no gap at or before ``i``
    can be feasible and the head-most feasible gap is already known.
    Rounding can let the computed ``S`` creep up toward the head by two
    roundings per slot (``starts[i+1] - finishes[i]`` and the ``room``
    sum), so the stop compares against ``lo + duration`` less
    :func:`_rounding_slop`, which covers those ``2n`` roundings and the few
    in the comparison itself.  Gaps the cascade dry run rejects only shrink
    the feasible set, so the stop stays exact.

    With observability on, each pushed slot adds to ``optimal.deferrals``
    and ``optimal.deferral_amount`` and emits a ``slot_deferred`` event;
    the booking adds one ``optimal.probes`` per link, the slots its scans
    visited to ``optimal.slots_scanned``, and emits ``edge_scheduled``.
    """
    if ready_time < 0:
        raise SchedulingError(f"negative ready time {ready_time}")
    if cost < 0:
        raise SchedulingError(f"negative communication cost {cost}")
    if not route or cost <= 0:
        state.record_route(edge, ())
        return ready_time
    state.record_route(edge, tuple(l.lid for l in route))
    observing = OBS.on
    # ``comm.next_constraints`` inlined with the model's fields hoisted out
    # of the loop (same arithmetic — see CommModel.next_constraints).
    hop = comm.hop_delay
    cut_through = comm.mode == "cut-through"
    queues = state._queues  # repro-lint: disable=TXN001 (read-only scan; writes use replace_run)
    next_link_map = state._next_link  # repro-lint: disable=TXN001 (read-only Lemma-2 slack lookup)
    est = ready_time
    min_finish = 0.0
    finish = ready_time
    scanned = 0
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
        lo = est if est >= floor else floor  # == max(est, min_finish - duration)
        tail_prev = finishes[-1] if n else 0.0
        start = tail_prev if tail_prev > lo else lo
        best_index = n
        best_start = start
        best_finish = start + duration
        # -- scan, tail -> head, stopped at the first dead gap --
        least_finish = lo + duration
        slop = _rounding_slop(n, tail_prev, least_finish)
        cut = least_finish - slop
        accum = 0.0
        stop = 0
        for i in range(n - 1, -1, -1):
            slot_start = starts[i]
            gap_after = (starts[i + 1] - finishes[i]) if i + 1 < n else math.inf
            room = accum + gap_after
            if room == 0.0:  # repro-lint: disable=FLT001 (exact-zero fast path)
                # ``min(dt, 0.0)`` is 0.0 for any slack (clamped >= 0), so the
                # slack lookup can be skipped — back-to-back slots, the common
                # case in packed queue tails, all take this branch.
                accum = 0.0
            else:
                # :func:`deferrable_time` inlined (same arithmetic), falling
                # back to the state's methods only to raise their errors.
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
                stop = i
                break
            prev_finish = finishes[i - 1] if i > 0 else 0.0
            start = prev_finish if prev_finish > lo else lo
            fin = start + duration
            # Within rounding distance of the bound, the computed test may
            # admit a gap whose cascade then overruns a slack by an ulp:
            # admit it only if the cascade's own test passes (a gap admitted
            # with more margin always passes it).
            if fin <= available and (
                available - fin >= slop
                or _cascade_fits(state, lid, slots, i, fin, comm)
            ):
                # Head-most feasible gap == earliest start: keep scanning.
                best_index = i
                best_start = start
                best_finish = fin
        scanned += n - stop
        # -- commit: insert, cascading deferrals within each slot's slack --
        # Only the run of the new slot and the slots it pushes is rewritten;
        # the cascade stops at ``end``, and the slots from there on stay.
        new_slot = TimeSlot(edge, best_start, best_finish)
        if best_index == n:
            state.replace_run(lid, n, n, [new_slot])
        else:
            run: list[TimeSlot] = [new_slot]
            prev_finish = best_finish
            end = n
            for j in range(best_index, n):
                s = slots[j]
                if s.start + EPS >= prev_finish:
                    if s.start < prev_finish:
                        _abut(run, s.start)
                    end = j
                    break
                delta = prev_finish - s.start
                slack = deferrable_time(state, lid, s, comm)
                if delta > slack + EPS:
                    # The scan's ``accum`` math and the cascade disagree: a
                    # bug, not a user error.
                    raise SchedulingError(
                        f"deferral cascade pushed edge {s.edge} on link {lid} by "
                        f"{delta:.12g} but its causality slack is only {slack:.12g}"
                    )
                moved = s.shifted(delta)
                if moved.start < prev_finish:
                    _abut(run, moved.start)
                run.append(moved)
                prev_finish = moved.finish
                if observing:
                    OBS.metrics.counter("optimal.deferrals").inc()
                    OBS.metrics.histogram("optimal.deferral_amount").observe(delta)
                    OBS.emit(
                        "slot_deferred",
                        t=moved.start,
                        lid=lid,
                        edge=list(s.edge),
                        for_edge=list(edge),
                        delta=delta,
                        slack=slack,
                    )
            state.replace_run(lid, best_index, end, run)
        finish = best_finish
        if cut_through:
            est = best_start + hop
            min_finish = finish + hop
        else:
            est = finish + hop
            min_finish = 0.0
    if observing:
        OBS.metrics.counter("optimal.probes").inc(len(route))
        OBS.metrics.counter("optimal.slots_scanned").inc(scanned)
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
