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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.exceptions import SchedulingError
from repro.network.topology import Link, Route
from repro.types import EdgeKey, LinkId

if TYPE_CHECKING:
    from repro.linksched.commmodel import CommModel

#: Numerical slack for backlog/volume comparisons inside the fluid sweep.
_FEPS = 1e-9

#: bisect key: a point's time / a profile segment's end
_TIME = itemgetter(0)
_END = itemgetter(1)


class Cumulative:
    """A non-decreasing piecewise-linear cumulative-volume function.

    Stored as breakpoints ``(t, v)``; a vertical jump (instantaneous
    availability) is two points with equal ``t``.  Before the first point the
    value is the first ``v`` (normally 0); after the last it is constant.
    """

    __slots__ = ("points",)

    def __init__(self, points: list[tuple[float, float]]):
        if not points:
            raise SchedulingError("cumulative function needs at least one point")
        last_t, last_v = -math.inf, -math.inf
        for t, v in points:
            if t < last_t or v < last_v:
                raise SchedulingError(f"cumulative points not monotone at ({t}, {v})")
            if v < -_FEPS:
                raise SchedulingError(f"negative cumulative volume {v}")
            last_t, last_v = t, v
        self.points = points

    @staticmethod
    def step(t: float, volume: float) -> "Cumulative":
        """All ``volume`` becomes available instantaneously at time ``t``."""
        if volume < 0:
            raise SchedulingError(f"negative volume {volume}")
        return Cumulative([(t, 0.0), (t, volume)])

    @property
    def start_time(self) -> float:
        return self.points[0][0]

    @property
    def final_volume(self) -> float:
        return self.points[-1][1]

    def finish_time(self) -> float:
        """Earliest time the final volume is fully available."""
        final = self.final_volume
        t_done = self.points[-1][0]
        for t, v in reversed(self.points):
            if v >= final - _FEPS:
                t_done = t
            else:
                break
        return t_done

    def shifted(self, dt: float) -> "Cumulative":
        """The same volume profile delayed by ``dt`` time units."""
        if dt == 0:  # repro-lint: disable=FLT001 (exact zero shift is the identity)
            return self
        return Cumulative([(t + dt, v) for t, v in self.points])

    def value(self, t: float) -> float:
        """Right-continuous value at ``t``."""
        pts = self.points
        if t < pts[0][0]:
            # Exact breakpoint lookup, not arithmetic.
            return pts[0][1] if pts[0][0] == t else 0.0  # repro-lint: disable=FLT001
        if t >= pts[-1][0]:
            return pts[-1][1]
        # The one pair with ``t0 <= t < t1`` (so ``t1 > t0``); at a jump the
        # right-most pair wins.
        i = bisect_right(pts, t, key=_TIME)
        t0, v0 = pts[i - 1]
        t1, v1 = pts[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


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
    not exceed 1.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: list[tuple[float, float, float]] | None = None):
        self.segments = segments if segments is not None else []

    def copy(self) -> "BandwidthProfile":
        return BandwidthProfile(list(self.segments))

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
        """Overlay ``usage`` onto the profile, splitting segments as needed."""
        for seg in usage:
            if seg.fraction < -_FEPS:
                raise SchedulingError(f"negative usage fraction {seg.fraction}")
        events: dict[float, float] = {}
        for t0, t1, used in self.segments:
            events[t0] = events.get(t0, 0.0) + used
            events[t1] = events.get(t1, 0.0) - used
        for seg in usage:
            if seg.finish <= seg.start or seg.fraction <= 0:
                continue
            events[seg.start] = events.get(seg.start, 0.0) + seg.fraction
            events[seg.finish] = events.get(seg.finish, 0.0) - seg.fraction
        new_segments: list[tuple[float, float, float]] = []
        level = 0.0
        prev_t: float | None = None
        for t in sorted(events):
            if prev_t is not None and level > _FEPS and t > prev_t:
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
            level += events[t]
            prev_t = t
        self.segments = new_segments


def forward_through_link(
    profile: BandwidthProfile,
    arrival: Cumulative,
    speed: float,
    reserve: bool = False,
) -> tuple[Cumulative, list[UsageSegment]]:
    """Greedily forward ``arrival`` through a link of ``speed``.

    Returns ``(departure cumulative, usage segments)``.  ``reserve=True``
    additionally commits the usage onto ``profile``.

    At every instant the forwarding rate is ``free(t) * speed`` while a
    backlog exists, otherwise ``min(arrival rate, free(t) * speed)`` — so the
    departure never exceeds the arrival (cut-through causality) and all spare
    bandwidth is exploited.
    """
    if speed <= 0:
        raise SchedulingError(f"non-positive link speed {speed}")
    volume = arrival.final_volume
    t0 = arrival.start_time
    if volume <= _FEPS:
        return Cumulative([(t0, 0.0)]), []

    # Decompose the arrival into jumps and constant-rate pieces.
    jumps: dict[float, float] = {}
    rate_pieces: list[tuple[float, float, float]] = []  # (t0, t1, rate)
    for (ta, va), (tb, vb) in zip(arrival.points, arrival.points[1:]):
        if tb == ta:
            if vb > va:
                jumps[ta] = jumps.get(ta, 0.0) + (vb - va)
        elif vb > va:
            rate_pieces.append((ta, tb, (vb - va) / (tb - ta)))

    # Segments ending at or before ``t0`` contribute no breakpoint after it
    # and are never in use again, so the sweep starts at the first segment
    # ending after ``t0``.
    segments = profile.segments
    n_seg = len(segments)
    si = bisect_right(segments, t0, key=_END)
    event_times = sorted(
        {t0, *jumps, *(t for p in rate_pieces for t in (p[0], p[1])),
         *(t for a, b, _ in segments[si:] for t in (a, b) if t > t0)}
    )

    def arrival_rate(t: float) -> float:
        for a, b, r in rate_pieces:
            if a <= t < b:
                return r
        return 0.0

    forwarded = 0.0
    arrived = 0.0
    t = t0
    dep_points: list[tuple[float, float]] = [(t0, 0.0)]
    usage: list[UsageSegment] = []
    ei = 0
    # Consume any jump exactly at t0.
    arrived += jumps.pop(t0, 0.0)
    guard = 0
    max_iters = 8 * (len(event_times) + n_seg + 4) + 64
    while forwarded < volume - _FEPS:
        guard += 1
        if guard > max_iters:
            raise SchedulingError(
                "fluid sweep failed to converge (internal error): "
                f"forwarded {forwarded} of {volume}"
            )
        # Next fixed event after t.
        while ei < len(event_times) and event_times[ei] <= t:
            ei += 1
        horizon = event_times[ei] if ei < len(event_times) else math.inf
        a = arrival_rate(t)
        # ``profile.used_at(t)`` by a forward pointer: ``t`` never decreases.
        while si < n_seg and segments[si][1] <= t:
            si += 1
        used = segments[si][2] if si < n_seg and segments[si][0] <= t else 0.0
        cap = max(0.0, 1.0 - used) * speed
        backlog = arrived - forwarded
        if backlog > _FEPS:
            rate = cap
            t_zero = t + backlog / (cap - a) if cap > a else math.inf
        else:
            rate = min(a, cap)
            t_zero = math.inf
        t_done = t + (volume - forwarded) / rate if rate > 0 else math.inf
        t_next = min(horizon, t_zero, t_done)
        if math.isinf(t_next):
            raise SchedulingError(
                "transfer cannot complete: no arrival and no backlog "
                f"(forwarded {forwarded} of {volume} at t={t})"
            )
        if t_next > t:
            dt = t_next - t
            forwarded = min(volume, forwarded + rate * dt)
            arrived = min(volume, arrived + a * dt)
            if rate > 0:
                frac = rate / speed
                # Segments abut exactly: t is copied from the previous finish.
                if usage and usage[-1].finish == t and abs(usage[-1].fraction - frac) <= _FEPS:  # repro-lint: disable=FLT001
                    usage[-1] = UsageSegment(usage[-1].start, t_next, usage[-1].fraction)
                else:
                    usage.append(UsageSegment(t, t_next, frac))
            # Always record the breakpoint: a zero-rate span must appear in
            # the departure curve or interpolation would invent volume there.
            if dep_points[-1] != (t_next, forwarded):
                dep_points.append((t_next, forwarded))
            t = t_next
        # Apply any jump landing exactly at the new time.
        if t in jumps:
            arrived = min(volume, arrived + jumps.pop(t))

    if dep_points[-1][1] < volume:
        dep_points.append((t, volume))
    departure = Cumulative(dep_points)
    if reserve:
        profile.add_usage(usage)
    return departure, usage


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
    """One edge's committed transfer across one link."""

    edge: EdgeKey
    lid: LinkId
    arrival: Cumulative
    departure: Cumulative
    usage: tuple[UsageSegment, ...]


@dataclass
class BandwidthLinkState:
    """All links' bandwidth profiles plus per-edge bookings, with COW transactions."""

    _profiles: dict[LinkId, BandwidthProfile] = field(default_factory=dict)
    _bookings: dict[EdgeKey, list[TransferBooking]] = field(default_factory=dict)
    _routes: dict[EdgeKey, tuple[LinkId, ...]] = field(default_factory=dict)
    _txn_profiles: dict[LinkId, BandwidthProfile] | None = None
    _txn_edges: list[EdgeKey] | None = None

    # -- transactions ------------------------------------------------------

    def begin(self) -> None:
        if self._txn_profiles is not None:
            raise SchedulingError("bandwidth transaction already open")
        self._txn_profiles = {}
        self._txn_edges = []

    def commit(self) -> None:
        if self._txn_profiles is None:
            raise SchedulingError("no open bandwidth transaction")
        self._txn_profiles = None
        self._txn_edges = None

    def rollback(self) -> None:
        if self._txn_profiles is None or self._txn_edges is None:
            raise SchedulingError("no open bandwidth transaction")
        for lid, original in self._txn_profiles.items():
            self._profiles[lid] = original
        for edge in self._txn_edges:
            self._bookings.pop(edge, None)
            self._routes.pop(edge, None)
        self._txn_profiles = None
        self._txn_edges = None

    def profile(self, lid: LinkId) -> BandwidthProfile:
        """Read-only view of a link's used-bandwidth profile."""
        prof = self._profiles.get(lid)
        return prof if prof is not None else BandwidthProfile()

    def _writable_profile(self, lid: LinkId) -> BandwidthProfile:
        prof = self._profiles.get(lid)
        if prof is None:
            prof = BandwidthProfile()
            self._profiles[lid] = prof
            if self._txn_profiles is not None and lid not in self._txn_profiles:
                self._txn_profiles[lid] = BandwidthProfile()
            return prof
        if self._txn_profiles is not None and lid not in self._txn_profiles:
            self._txn_profiles[lid] = prof
            prof = prof.copy()
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
            self._writable_profile(hop.lid).add_usage(list(hop.usage))

    def schedule_edge(
        self,
        edge: EdgeKey,
        route: Route,
        cost: float,
        ready_time: float,
        comm: "CommModel | None" = None,
    ) -> float:
        """Book ``edge`` along ``route`` with fluid forwarding; return arrival time.

        ``comm`` (a :class:`repro.linksched.commmodel.CommModel`) selects the
        switching mode: under cut-through (default) the next link sees the
        previous link's departure curve delayed by the hop delay; under
        store-and-forward it sees the whole volume as a step once the
        previous link finishes.
        """
        from repro.linksched.commmodel import CUT_THROUGH

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
            if self._txn_edges is not None:
                self._txn_edges.append(edge)
            return ready_time
        self._routes[edge] = tuple(l.lid for l in route)
        if self._txn_edges is not None:
            self._txn_edges.append(edge)
        flows: list[TransferBooking] = []
        arrival = Cumulative.step(ready_time, cost)
        for link in route:
            prof = self._writable_profile(link.lid)
            departure, usage = forward_through_link(prof, arrival, link.speed, reserve=True)
            flows.append(TransferBooking(edge, link.lid, arrival, departure, tuple(usage)))
            if comm.mode == "cut-through":
                arrival = departure.shifted(comm.hop_delay)
            else:
                arrival = Cumulative.step(
                    departure.finish_time() + comm.hop_delay, cost
                )
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
