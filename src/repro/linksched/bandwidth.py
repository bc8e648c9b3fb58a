"""Bandwidth-shared link model for BBSA (paper Section 5).

The paper lets an edge use the *remaining bandwidth rate* of occupied time
slots and split its communication volume across slots (Lemma 2', formula (4),
Theorems 3-4).  Formula (4) is the per-slot discretization of a cumulative
causality constraint: at any instant, the volume forwarded on route link
``m+1`` may not exceed the volume already received on link ``m``.  We
implement that constraint directly as a **fluid-flow model**:

- every link carries a piecewise-constant *used-bandwidth* profile
  (:class:`BandwidthProfile`, fraction of capacity in use over time),
- a communication entering a link is described by its cumulative *arrival*
  function (:class:`Cumulative`), a step at the source task's finish time,
- :func:`forward_through_link` forwards greedily — at every instant the
  transfer uses all free bandwidth while never sending data that has not yet
  arrived — producing the *departure* cumulative, which is the next link's
  arrival.

Greedy forwarding is exactly BBSA's policy ("fully exploit the bandwidth of
network links to transfer communication data as soon as possible") without
the slot-splitting bookkeeping of the paper's presentation.

Committing a hop costs time in proportion to what the transfer touches, not
to the whole profile.  The sweep reads the profile's boundaries through its
segment pointer and stops once the volume is forwarded.  While the transfer
only waits for data it steps straight to the next arrival event, so a
departure omits the points where the transfer only waited.  Reserving the
usage rebuilds only the *region*, the run of segments that overlap or abut
the usage's window ``[first live span's start, last live span's finish]``,
as one running sum from 0.0; every segment outside the region keeps its
stored fraction.  ``tests/naive_reference.py``'s ``naive_overlay`` is the
oracle for that rule.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.topology import Link, Route
from repro.types import EdgeKey, LinkId

#: Numerical slack for backlog/volume comparisons inside the fluid sweep.
_FEPS = 1e-9

#: bisect keys: a profile segment's start and end
_START = itemgetter(0)
_END = itemgetter(1)

#: The least value of :func:`_sweep`'s iteration bound (one event time, no
#: segment), so the bound itself is only computed by a sweep that outlasts it.
_MIN_ITERS = 8 * (1 + 0 + 4) + 64


class Cumulative:
    """A non-decreasing piecewise-linear cumulative-volume function.

    Defined by breakpoints ``(t, v)``; a vertical jump (instantaneous
    availability) is two points with equal ``t``.  Before the first point the
    value is 0.0; after the last it is constant.

    The breakpoints are stored flat in one ``array('d')`` —
    ``t0, v0, t1, v1, ...`` — at 16 bytes a point and with no Python object
    per point: BBSA keeps one departure curve per booked hop, tens of
    breakpoints each, for the lifetime of the schedule.  The constructor
    copies its input, so a caller's list can change afterwards without
    touching the curve; :attr:`points` and :meth:`flat` hand out fresh
    copies.  Every curve built, however it is built, passes the same checks:
    at least one point, monotone in both coordinates, no negative volume.

    A departure the sweep builds omits the points where its transfer only
    waited for data: a wait is one flat piece, however many profile
    boundaries it spans.  A curve with extra points on a flat piece (as
    older exports hold) is the same function and loads unchanged.
    """

    __slots__ = ("_flat",)

    def __init__(self, points: Iterable[tuple[float, float]]):
        flat: list[float] = []
        for t, v in points:
            flat.append(t)
            flat.append(v)
        self._flat = _curve_storage(flat)

    @classmethod
    def _from_flat(cls, flat: list[float]) -> "Cumulative":
        """A curve from breakpoints already flattened to ``t0, v0, t1, ...``."""
        curve = cls.__new__(cls)
        curve._flat = _curve_storage(flat)
        return curve

    @staticmethod
    def step(t: float, volume: float) -> "Cumulative":
        """All ``volume`` becomes available instantaneously at time ``t``."""
        if volume < 0:
            raise SchedulingError(f"negative volume {volume}")
        return Cumulative._from_flat([t, 0.0, t, volume])

    @property
    def points(self) -> list[tuple[float, float]]:
        """The breakpoints as a fresh list of ``(t, v)`` pairs."""
        it = iter(self._flat)
        return list(zip(it, it))

    def flat(self) -> list[float]:
        """The breakpoints as a fresh flat list ``[t0, v0, t1, v1, ...]``."""
        return self._flat.tolist()

    @property
    def start_time(self) -> float:
        return self._flat[0]

    @property
    def final_volume(self) -> float:
        return self._flat[-1]

    def finish_time(self) -> float:
        """Earliest time the final volume is fully available."""
        flat = self._flat
        # ``i`` indexes the value of the earliest point of the trailing run
        # whose values are all within ``_FEPS`` of the final volume.
        i = len(flat) - 1
        done = flat[i] - _FEPS
        while i > 1 and flat[i - 2] >= done:
            i -= 2
        return flat[i - 1]

    def shifted(self, dt: float) -> "Cumulative":
        """The same volume profile delayed by ``dt`` time units."""
        if dt == 0:  # repro-lint: disable=FLT001 (exact zero shift is the identity)
            return self
        flat = self._flat.tolist()
        flat[0::2] = [t + dt for t in flat[0::2]]
        return Cumulative._from_flat(flat)

    def value(self, t: float) -> float:
        """Right-continuous value at ``t``."""
        flat = self._flat
        if t < flat[0]:
            return 0.0
        if t >= flat[-2]:
            return flat[-1]
        # The one pair with ``t0 <= t < t1`` (so ``t1 > t0``); at a jump the
        # right-most pair wins.  ``i`` indexes ``t1``.
        i = 2 * bisect_right(flat[0::2], t)
        t0, v0, t1, v1 = flat[i - 2 : i + 2]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _curve_storage(flat: list[float]) -> array[float]:
    """Check flat breakpoints ``t0, v0, t1, v1, ...`` and pack them."""
    if not flat:
        raise SchedulingError("cumulative function needs at least one point")
    last_t, last_v = -math.inf, -math.inf
    it = iter(flat)
    for t, v in zip(it, it):
        if t < last_t or v < last_v:
            raise SchedulingError(f"cumulative points not monotone at ({t}, {v})")
        if v < -_FEPS:
            raise SchedulingError(f"negative cumulative volume {v}")
        last_t, last_v = t, v
    return array("d", flat)


@dataclass(frozen=True, slots=True)
class UsageSegment:
    """The transfer occupied ``fraction`` of the link over ``[start, finish)``."""

    start: float
    finish: float
    fraction: float


class BandwidthProfile:
    """Piecewise-constant used-bandwidth fraction of one link over time.

    ``segments`` is a sorted list of non-overlapping ``(t0, t1, used)`` with
    ``t0 < t1`` and ``0 < used``; uncovered time is fully free.  ``used`` may
    not exceed 1.  The profile owns the list: :meth:`add_usage` splices it
    in place.

    Adding usage rewrites only the *region* the usage touches: the run of
    segments that overlap or abut ``[first live span's start, last live
    span's finish]`` (a span is live when ``finish > start`` and
    ``fraction > 0``).  The region and the usage are re-derived together as
    one running sum from 0.0, so a fraction inside the region can be
    re-rounded: usage ``(1, 2, 0.1)`` abutting a stored ``(0, 1, 0.7)`` is
    stored as ``0.09999999999999998``.  Every segment outside the region
    keeps its stored fraction.  :func:`tests.naive_reference.naive_overlay`
    is the oracle.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: list[tuple[float, float, float]] | None = None):
        self.segments = segments if segments is not None else []

    def used_at(self, t: float) -> float:
        for t0, t1, used in self.segments:
            if t0 <= t < t1:
                return used
            if t0 > t:
                break
        return 0.0

    def max_used(self) -> float:
        return max((u for _, _, u in self.segments), default=0.0)

    def add_usage(self, usage: list[UsageSegment]) -> None:
        """Overlay ``usage`` onto the profile, splitting segments as needed.

        Only the region the usage touches is rebuilt (see the class
        docstring); ``usage`` may be unsorted or overlapping.
        """
        self._overlay([x for u in usage for x in (u.start, u.finish, u.fraction)])

    def _overlay(self, spans: Sequence[float]) -> None:
        """:meth:`add_usage` of usage flattened to ``start, finish, fraction, ...``.

        The region (the stored segments with ``end >= W.start`` and
        ``start <= W.finish``, for ``W`` the live usage's window) is rebuilt
        together with the usage as one running level from 0.0: the deltas
        at each time accumulate segments first, then usage, in order; a
        level above ``1 + 1e-6`` is an over-commit; a level is stored capped
        at 1; and contiguous pieces whose levels agree within ``_FEPS``
        merge.  The result replaces the region, and an end piece abutting
        an untouched neighbour merges with it under the same rule, keeping
        the earlier segment's fraction.  Sorted, disjoint usage (every
        sweep's output) merges its deltas with the region's boundaries
        directly; other usage goes through a dict and a sort.
        """
        live: list[tuple[float, float, float]] = []
        ordered = True  # each live span starts at or after the previous one's finish
        w_finish = -math.inf
        it = iter(spans)
        for span in zip(it, it, it):
            start, finish, fraction = span
            if fraction < -_FEPS:
                raise SchedulingError(f"negative usage fraction {fraction}")
            if finish > start and fraction > 0:
                if start < w_finish:
                    ordered = False
                w_finish = finish
                live.append(span)
        if not live:
            return
        if ordered:
            w_start = live[0][0]
        else:
            w_start = min(u[0] for u in live)
            w_finish = max(u[1] for u in live)
        segments = self.segments
        lo = bisect_left(segments, w_start, key=_END)
        hi = bisect_right(segments, w_finish, lo, key=_START)
        region = segments[lo:hi]
        if ordered:
            times, deltas = _merged_deltas(region, live)
        else:
            events: dict[float, float] = {}
            for t0, t1, used in region:
                events[t0] = events.get(t0, 0.0) + used
                events[t1] = events.get(t1, 0.0) - used
            for start, finish, fraction in live:
                events[start] = events.get(start, 0.0) + fraction
                events[finish] = events.get(finish, 0.0) - fraction
            times = sorted(events)
            deltas = [events[t] for t in times]
        new_segments: list[tuple[float, float, float]] = []
        level = 0.0
        prev_t = times[0]
        for t, delta in zip(times, deltas):
            if level > _FEPS and t > prev_t:
                if level > 1.0 + 1e-6:
                    raise SchedulingError(
                        f"link over-committed: used bandwidth {level:.9f} > 1 "
                        f"over [{prev_t}, {t})"
                    )
                # Merge with the previous segment when contiguous and equal.
                if (
                    new_segments
                    and new_segments[-1][1] == prev_t
                    and abs(new_segments[-1][2] - level) <= _FEPS
                ):
                    new_segments[-1] = (new_segments[-1][0], t, new_segments[-1][2])
                else:
                    new_segments.append((prev_t, t, min(level, 1.0)))
            level += delta
            prev_t = t
        if new_segments:
            if lo:
                a0, a1, au = segments[lo - 1]
                b0, b1, bu = new_segments[0]
                if a1 == b0 and abs(au - bu) <= _FEPS:
                    lo -= 1
                    new_segments[0] = (a0, b1, au)
            if hi < len(segments):
                a0, a1, au = new_segments[-1]
                b0, b1, bu = segments[hi]
                if a1 == b0 and abs(au - bu) <= _FEPS:
                    hi += 1
                    new_segments[-1] = (a0, b1, au)
        segments[lo:hi] = new_segments


def _merged_deltas(
    region: list[tuple[float, float, float]], usage: list[tuple[float, float, float]]
) -> tuple[list[float], list[float]]:
    """The region's and the usage's level deltas by time, both sorted and
    disjoint, summed in the order a dict filled with the segments' and then
    the usage's ``+start``/``-finish`` deltas holds them."""
    seg_t: list[float] = []
    seg_d: list[float] = []
    for t0, t1, used in region:
        if seg_t and seg_t[-1] == t0:  # abutting: the end's delta came first
            seg_d[-1] += used
        else:
            seg_t.append(t0)
            seg_d.append(used)
        seg_t.append(t1)
        seg_d.append(-used)
    times: list[float] = []
    deltas: list[float] = []
    k = 0
    n = len(seg_t)
    for start, finish, fraction in usage:
        while k < n and seg_t[k] <= start:
            times.append(seg_t[k])
            deltas.append(seg_d[k])
            k += 1
        if times and times[-1] == start:
            deltas[-1] += fraction
        else:
            times.append(start)
            deltas.append(fraction)
        while k < n and seg_t[k] <= finish:
            times.append(seg_t[k])
            deltas.append(seg_d[k])
            k += 1
        if times[-1] == finish:
            deltas[-1] -= fraction
        else:
            times.append(finish)
            deltas.append(-fraction)
    times += seg_t[k:]
    deltas += seg_d[k:]
    return times, deltas


def forward_through_link(
    profile: BandwidthProfile,
    arrival: Cumulative,
    speed: float,
    reserve: bool = False,
) -> tuple[Cumulative, list[UsageSegment]]:
    """Greedily forward ``arrival`` through a link of ``speed``.

    Returns ``(departure cumulative, usage segments)``.  ``reserve=True``
    additionally commits the usage onto ``profile``.  The sweep itself is
    :func:`_sweep`.
    """
    departure, spans = _sweep(profile, arrival, speed)
    if spans is None:
        return departure, []
    if reserve:
        profile._overlay(spans)
    it = iter(spans)
    return departure, [UsageSegment(*seg) for seg in zip(it, it, it)]


def _sweep(
    profile: BandwidthProfile, arrival: Cumulative, speed: float
) -> tuple[Cumulative, list[float] | None]:
    """:func:`forward_through_link` without the reservation: returns the
    departure and the usage flattened to ``start, finish, fraction, ...``,
    or ``None`` for the usage of an empty transfer, which reserves nothing.

    At every instant the forwarding rate is ``free(t) * speed`` while a
    backlog exists, otherwise ``min(arrival rate, free(t) * speed)`` — so the
    departure never exceeds the arrival (cut-through causality) and all spare
    bandwidth is exploited.

    The sweep visits every event time (``t0``, the arrival's breakpoints and
    the profile boundaries after ``t0``) in order, and reads the arrival rate
    and the used bandwidth through forward pointers, because ``t`` never
    decreases.  While the transfer *waits* (its backlog is at most
    ``_FEPS`` and the arrival rate is 0) nothing moves until the next
    arrival event, whatever the free capacity, so it steps straight there:
    ``forwarded`` and ``arrived`` gain ``0.0 * dt`` and no span is emitted,
    exactly as over the boundaries it skips, and the departure omits the
    flat breakpoints those boundaries would have added.  Every jump time is
    an arrival event, so every jump still lands; with no arrival event
    left, the sweep steps boundary by boundary.  The profile's boundaries
    are never collected or sorted: the next one after ``t`` is read off the
    segment pointer, as in :func:`probe_step_finish`, so boundaries after
    the transfer completes are never visited.  The departure's breakpoints
    and the usage are built as flat float lists, with no tuple or object
    per point.  Each ``min``/``max`` is spelled as a comparison that must
    pick the same operand as the builtin on ties (the first), so every
    floating-point operation matches the plain formula above.

    The loop is bounded by ``8 * (events + segments + 4) + 64`` iterations,
    where ``events`` counts the distinct event times; the bound is computed
    (:func:`_event_count`) only by a sweep that passes its least value,
    :data:`_MIN_ITERS`.
    """
    if speed <= 0:
        raise SchedulingError(f"non-positive link speed {speed}")
    pts = arrival._flat
    volume = pts[-1]
    t0 = pts[0]
    if volume <= _FEPS:
        return Cumulative._from_flat([t0, 0.0]), None

    # Decompose the arrival into jumps and constant-rate pieces, reading its
    # breakpoints pairwise off the flat storage, and collect its event times
    # (``t0``, then each jump and each piece's ends) in the same pass.  The
    # breakpoints are sorted, so a time equal to the last one kept repeats
    # it, and the first copy added stays (0.0 and -0.0).
    jumps: dict[float, float] = {}
    rate_pieces: list[tuple[float, float, float]] = []  # (t0, t1, rate)
    times = [t0]
    it = iter(pts)
    ta = next(it)
    va = next(it)
    for tb, vb in zip(it, it):
        if tb == ta:
            if vb > va:
                jumps[ta] = jumps.get(ta, 0.0) + (vb - va)
                if ta != times[-1]:
                    times.append(ta)
        elif vb > va:
            rate_pieces.append((ta, tb, (vb - va) / (tb - ta)))
            if ta != times[-1]:
                times.append(ta)
            times.append(tb)
        ta = tb
        va = vb
    n_ev = len(times)
    n_pieces = len(rate_pieces)

    # Segments ending at or before ``t0`` contribute no boundary after it
    # and are never in use again, so the sweep starts at the first segment
    # ending after ``t0``.
    segments = profile.segments
    n_seg = len(segments)
    si = bisect_right(segments, t0, key=_END)
    si0 = si

    forwarded = 0.0
    arrived = 0.0
    t = t0
    # The departure's breakpoints, flat.  Its last time is always ``t``.
    dep = [t0, 0.0]
    spans: list[float] = []
    ei = 0
    ri = 0
    # Consume any jump exactly at t0.
    arrived += jumps.pop(t0, 0.0)
    guard = 0
    # The iteration bound starts at its least value and is computed once the
    # loop passes that.
    max_iters = _MIN_ITERS
    counted = False
    while forwarded < volume - _FEPS:
        guard += 1
        if guard > max_iters:
            if not counted:
                max_iters = 8 * (_event_count(times, segments, si0, t0) + n_seg + 4) + 64
                counted = True
            if guard > max_iters:
                raise SchedulingError(
                    "fluid sweep failed to converge (internal error): "
                    f"forwarded {forwarded} of {volume}"
                )
        # The arrival rate at ``t``: the pieces are sorted and disjoint, so
        # the one piece with ``start <= t < end`` is the first ending after t.
        while ri < n_pieces and rate_pieces[ri][1] <= t:
            ri += 1
        a = rate_pieces[ri][2] if ri < n_pieces and rate_pieces[ri][0] <= t else 0.0
        while ei < n_ev and times[ei] <= t:
            ei += 1
        backlog = arrived - forwarded
        if backlog <= _FEPS and a <= 0.0 and ei < n_ev:
            # Waiting for data: with no backlog and no arrival rate nothing
            # moves before the next arrival event, and a profile boundary on
            # the way changes only capacity the transfer cannot use, so one
            # step goes there.  Stepping over each boundary would add
            # ``0.0 * dt`` to both volumes, no span and a flat breakpoint.
            t = times[ei]
            dep.append(t)
            dep.append(forwarded)
        else:
            # ``profile.used_at(t)`` and the next profile boundary after
            # ``t`` by a forward pointer (``t`` never decreases): the first
            # segment ending after ``t`` starts after it, or is in use and
            # ends after it.
            while si < n_seg and segments[si][1] <= t:
                si += 1
            if si < n_seg:
                sa, sb, used = segments[si]
                if sa > t:
                    boundary = sa
                    used = 0.0
                else:
                    boundary = sb
            else:
                boundary = math.inf
                used = 0.0
            # The next event after ``t``: the arrival's or the profile's,
            # and the arrival's on a tie, as a set filled with the arrival's
            # times first would hold it (of 0.0 and -0.0 the first added
            # stays).
            horizon = times[ei] if ei < n_ev and times[ei] <= boundary else boundary
            free = 1.0 - used
            cap = (free if free > 0.0 else 0.0) * speed
            if backlog > _FEPS:
                rate = cap
                t_zero = t + backlog / (cap - a) if cap > a else math.inf
            else:
                rate = cap if cap < a else a
                t_zero = math.inf
            t_done = t + (volume - forwarded) / rate if rate > 0 else math.inf
            t_next = horizon
            if t_zero < t_next:
                t_next = t_zero
            if t_done < t_next:
                t_next = t_done
            if math.isinf(t_next):
                raise SchedulingError(
                    "transfer cannot complete: no arrival and no backlog "
                    f"(forwarded {forwarded} of {volume} at t={t})"
                )
            if t_next > t:
                dt = t_next - t
                sent = forwarded + rate * dt
                forwarded = sent if sent < volume else volume
                got = arrived + a * dt
                arrived = got if got < volume else volume
                if rate > 0:
                    frac = rate / speed
                    # Segments abut exactly: t is copied from the previous
                    # finish.
                    if spans and spans[-2] == t and abs(spans[-1] - frac) <= _FEPS:
                        spans[-2] = t_next
                    else:
                        spans.append(t)
                        spans.append(t_next)
                        spans.append(frac)
                # Always record the breakpoint: a zero-rate span must appear
                # in the departure curve or interpolation would invent volume
                # there.  ``t_next > t`` and the last breakpoint is at ``t``,
                # so it is new.
                dep.append(t_next)
                dep.append(forwarded)
                t = t_next
        # Apply any jump landing exactly at the new time.
        if t in jumps:
            got = arrived + jumps.pop(t)
            arrived = got if got < volume else volume

    if dep[-1] < volume:
        dep.append(t)
        dep.append(volume)
    return Cumulative._from_flat(dep), spans


def _event_count(
    times: list[float], segments: list[tuple[float, float, float]], si: int, t0: float
) -> int:
    """How many distinct event times a sweep from ``t0`` has: the arrival's
    ``times`` and the boundaries after ``t0`` of ``segments[si:]``."""
    events = set(times)
    for sa, sb, _ in segments[si:]:
        if sa > t0:
            events.add(sa)
        if sb > t0:
            events.add(sb)
    return len(events)


def probe_step_finish(
    segments: list[tuple[float, float, float]],
    t0: float,
    volume: float,
    speed: float,
) -> float:
    """Finish time of a step transfer over ``segments`` — probe-only sweep.

    Replays :func:`forward_through_link` for the special case of a step
    arrival, where the whole volume is backlogged from ``t0`` on: the
    forwarding rate is always the free capacity, and the sweep needs no
    departure curve, no usage segments and no arrival-rate bookkeeping.  It
    evaluates the same floating-point expressions over the same event times
    as the general sweep, so the returned finish time is bit-identical to
    ``forward_through_link(profile, Cumulative.step(t0, volume), speed)``
    followed by ``departure.finish_time()`` — just without the allocations.

    The general sweep's event set (every segment boundary after ``t0``)
    collapses to a segment-pointer walk: with ``si`` at the first segment
    ending after ``t``, the next event is that segment's start (when ``t``
    is in the gap before it) or its end (when ``t`` is inside it) — the
    segments are sorted and non-overlapping, so nothing else can intervene.
    The walk starts by bisecting to the first segment ending after ``t0``.
    """
    n_seg = len(segments)
    forwarded = 0.0
    t = t0
    si = bisect_right(segments, t0, key=_END)
    guard = 0
    max_iters = 8 * (2 * n_seg + 5) + 64
    while forwarded < volume - _FEPS:
        guard += 1
        if guard > max_iters:
            raise SchedulingError(
                "fluid sweep failed to converge (internal error): "
                f"forwarded {forwarded} of {volume}"
            )
        while si < n_seg and segments[si][1] <= t:
            si += 1
        if si < n_seg:
            a, b, u = segments[si]
            if t < a:
                horizon = a
                used = 0.0
            else:
                horizon = b
                used = u
        else:
            horizon = math.inf
            used = 0.0
        rate = max(0.0, 1.0 - used) * speed
        t_done = t + (volume - forwarded) / rate if rate > 0 else math.inf
        t_next = horizon if horizon < t_done else t_done
        if math.isinf(t_next):
            raise SchedulingError(
                "transfer cannot complete: no arrival and no backlog "
                f"(forwarded {forwarded} of {volume} at t={t})"
            )
        if t_next > t:
            forwarded = min(volume, forwarded + rate * (t_next - t))
            t = t_next
    return t


@dataclass(frozen=True, slots=True)
class TransferBooking:
    """One edge's committed transfer across one link.

    ``spans`` holds the link usage flat, ``start, finish, fraction`` per
    segment (no object per segment); :attr:`usage` rebuilds the segments.
    ``departure`` omits the points where the transfer only waited for data
    (see :func:`_sweep`).
    """

    edge: EdgeKey
    lid: LinkId
    arrival: Cumulative
    departure: Cumulative
    spans: array[float]

    @property
    def usage(self) -> tuple[UsageSegment, ...]:
        """The usage segments, rebuilt from :attr:`spans`."""
        it = iter(self.spans)
        return tuple(UsageSegment(*seg) for seg in zip(it, it, it))


@dataclass
class BandwidthLinkState:
    """All links' bandwidth profiles plus per-edge bookings."""

    _profiles: dict[LinkId, BandwidthProfile] = field(default_factory=dict)
    _bookings: dict[EdgeKey, list[TransferBooking]] = field(default_factory=dict)
    _routes: dict[EdgeKey, tuple[LinkId, ...]] = field(default_factory=dict)

    def profile(self, lid: LinkId) -> BandwidthProfile:
        """Read-only view of a link's used-bandwidth profile."""
        prof = self._profiles.get(lid)
        return prof if prof is not None else BandwidthProfile()

    def _writable_profile(self, lid: LinkId) -> BandwidthProfile:
        prof = self._profiles.get(lid)
        if prof is None:
            prof = BandwidthProfile()
            self._profiles[lid] = prof
        return prof

    # -- bookings ------------------------------------------------------------

    def route_of(self, edge: EdgeKey) -> tuple[LinkId, ...]:
        try:
            return self._routes[edge]
        except KeyError:
            raise SchedulingError(f"edge {edge} has no recorded route") from None

    def has_route(self, edge: EdgeKey) -> bool:
        return edge in self._routes

    def routes(self) -> dict[EdgeKey, tuple[LinkId, ...]]:
        return dict(self._routes)

    def bookings_of(self, edge: EdgeKey) -> list[TransferBooking]:
        return list(self._bookings.get(edge, []))

    def restore_route(self, edge: EdgeKey, links: tuple[LinkId, ...]) -> None:
        """Re-register a deserialized edge's route verbatim."""
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already scheduled")
        self._routes[edge] = tuple(links)

    def restore_booking(self, edge: EdgeKey, hops: list[TransferBooking]) -> None:
        """Re-install a deserialized edge's hop bookings and link usage verbatim."""
        if edge in self._bookings:
            raise SchedulingError(f"edge {edge} already has bookings")
        self._bookings[edge] = list(hops)
        for hop in hops:
            self._writable_profile(hop.lid)._overlay(hop.spans)

    def schedule_edge(
        self,
        edge: EdgeKey,
        route: Route,
        cost: float,
        ready_time: float,
        comm: CommModel | None = None,
    ) -> float:
        """Book ``edge`` along ``route`` with fluid forwarding; return arrival time.

        ``comm`` (a :class:`repro.linksched.commmodel.CommModel`) selects the
        switching mode: under cut-through (default) the next link sees the
        previous link's departure curve delayed by the hop delay; under
        store-and-forward it sees the whole volume as a step once the
        previous link finishes.
        """
        if comm is None:
            comm = CUT_THROUGH
        if ready_time < 0:
            raise SchedulingError(f"negative ready time {ready_time}")
        if cost < 0:
            raise SchedulingError(f"negative communication cost {cost}")
        if edge in self._routes:
            raise SchedulingError(f"edge {edge} already scheduled")
        if not route or cost <= 0:
            self._routes[edge] = ()
            return ready_time
        self._routes[edge] = tuple(l.lid for l in route)
        flows: list[TransferBooking] = []
        cut_through = comm.mode == "cut-through"
        hop_delay = comm.hop_delay
        arrival = Cumulative.step(ready_time, cost)
        for link in route:
            lid = link.lid
            prof = self._writable_profile(lid)
            departure, spans = _sweep(prof, arrival, link.speed)
            if spans is None:
                spans = []
            else:
                prof._overlay(spans)
            flows.append(TransferBooking(edge, lid, arrival, departure, array("d", spans)))
            if cut_through:
                # With no hop delay this is ``departure`` itself, which the
                # validator's hop-to-hop check relies on.
                arrival = departure.shifted(hop_delay)
            else:
                arrival = Cumulative.step(departure.finish_time() + hop_delay, cost)
        self._bookings[edge] = flows
        return flows[-1].departure.finish_time()

    def probe_link(self, link: Link, cost: float, ready_time: float) -> float:
        """Finish time a ``cost``-sized step transfer would get on ``link`` (no commit).

        Uses :func:`probe_step_finish`, the allocation-free specialisation of
        the fluid sweep for step arrivals — bit-identical to forwarding a
        ``Cumulative.step`` through :func:`forward_through_link` and reading
        ``finish_time()``, at a fraction of the cost.  Routing probes are by
        far the hottest caller of the fluid model.
        """
        if cost < 0:
            raise SchedulingError(f"negative volume {cost}")
        if link.speed <= 0:
            raise SchedulingError(f"non-positive link speed {link.speed}")
        if cost <= _FEPS:
            return ready_time
        prof = self._profiles.get(link.lid)
        segments = prof.segments if prof is not None else []
        return probe_step_finish(segments, ready_time, cost, link.speed)
