"""The fluid sweeps vs the from-zero scans they replaced.

:func:`repro.linksched.bandwidth.probe_step_finish` bisects to the first
profile segment ending after the transfer's start ``t0``, and
:func:`~repro.linksched.bandwidth.forward_through_link` takes breakpoints
from that segment on and reads the used bandwidth and the arrival rate
through forward pointers.  Both claim the same floating-point operations in
the same order as the versions that walked every segment from time 0 and
rescanned the arrival's rate pieces, so results must be equal with ``==``
— departure points, usage segments, finish times and reserved profiles —
for a ``t0`` before, inside, between and after the segments, exactly on
segment boundaries, with segment boundaries exactly on the arrival's
breakpoints, and along multi-hop routes under every switching mode.  The
reference scans below are copies of those from-zero versions.

While a transfer waits for data (no backlog, no arrival rate) the sweep
steps straight to the next arrival event, and so does
:func:`reference_forward`.  ``reference_forward(..., wait_in_one_step=False)``
keeps the old stepping over every profile boundary on the way; against it
the usage, the reserved profile and the finish time are equal with ``==``,
and the departure is the same function with fewer flat breakpoints.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SchedulingError
from repro.linksched import bandwidth
from repro.linksched.bandwidth import (
    _FEPS,
    BandwidthProfile,
    Cumulative,
    UsageSegment,
    forward_through_link,
    probe_step_finish,
)
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel

SWEEPS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_forward(profile, arrival, speed, *, wait_in_one_step=True):
    """The sweep as it was: every breakpoint, ``used_at`` scanned from 0.

    While the transfer waits for data, the next event is the next arrival
    event; ``wait_in_one_step=False`` steps over every profile boundary on
    the way instead, as the sweep once did.
    """
    volume = arrival.final_volume
    t0 = arrival.start_time
    if volume <= _FEPS:
        return Cumulative([(t0, 0.0)]), []
    jumps: dict[float, float] = {}
    rate_pieces = []
    for (ta, va), (tb, vb) in zip(arrival.points, arrival.points[1:]):
        if tb == ta:
            if vb > va:
                jumps[ta] = jumps.get(ta, 0.0) + (vb - va)
        elif vb > va:
            rate_pieces.append((ta, tb, (vb - va) / (tb - ta)))
    breakpoints = [t for seg in profile.segments for t in seg[:2]]
    arrival_events = {t0, *jumps, *(t for p in rate_pieces for t in (p[0], p[1]))}
    event_times = sorted(arrival_events | {t for t in breakpoints if t > t0})

    def arrival_rate(t):
        for a, b, r in rate_pieces:
            if a <= t < b:
                return r
        return 0.0

    forwarded = 0.0
    arrived = 0.0
    t = t0
    dep_points = [(t0, 0.0)]
    usage: list[UsageSegment] = []
    ei = 0
    arrived += jumps.pop(t0, 0.0)
    while forwarded < volume - _FEPS:
        while ei < len(event_times) and event_times[ei] <= t:
            ei += 1
        horizon = event_times[ei] if ei < len(event_times) else math.inf
        a = arrival_rate(t)
        cap = max(0.0, 1.0 - profile.used_at(t)) * speed
        backlog = arrived - forwarded
        if wait_in_one_step and backlog <= _FEPS and a <= 0.0:
            later = [x for x in sorted(arrival_events) if x > t]
            if later:
                horizon = later[0]
        if backlog > _FEPS:
            rate = cap
            t_zero = t + backlog / (cap - a) if cap > a else math.inf
        else:
            rate = min(a, cap)
            t_zero = math.inf
        t_done = t + (volume - forwarded) / rate if rate > 0 else math.inf
        t_next = min(horizon, t_zero, t_done)
        if math.isinf(t_next):
            raise SchedulingError("transfer cannot complete")
        if t_next > t:
            dt = t_next - t
            forwarded = min(volume, forwarded + rate * dt)
            arrived = min(volume, arrived + a * dt)
            if rate > 0:
                frac = rate / speed
                if usage and usage[-1].finish == t and abs(usage[-1].fraction - frac) <= _FEPS:
                    usage[-1] = UsageSegment(usage[-1].start, t_next, usage[-1].fraction)
                else:
                    usage.append(UsageSegment(t, t_next, frac))
            if dep_points[-1] != (t_next, forwarded):
                dep_points.append((t_next, forwarded))
            t = t_next
        if t in jumps:
            arrived = min(volume, arrived + jumps.pop(t))
    if dep_points[-1][1] < volume:
        dep_points.append((t, volume))
    return Cumulative(dep_points), usage


def reference_probe(segments, t0, volume, speed):
    """The step probe as it was: the segment walk starts at segment 0."""
    n_seg = len(segments)
    forwarded = 0.0
    t = t0
    si = 0
    while forwarded < volume - _FEPS:
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
            raise SchedulingError("transfer cannot complete")
        if t_next > t:
            forwarded = min(volume, forwarded + rate * (t_next - t))
            t = t_next
    return t


@st.composite
def profiles(draw) -> list[tuple[float, float, float]]:
    """Sorted, non-overlapping segments; gaps may be zero (abutting)."""
    triples = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 20.0),
                st.floats(0.01, 20.0),
                st.floats(0.05, 1.0),
            ),
            max_size=10,
        )
    )
    t = 0.0
    segments = []
    for gap, dur, used in triples:
        start = t + gap
        segments.append((start, start + dur, used))
        t = start + dur
    return segments


@st.composite
def start_times(draw, segments) -> float:
    """A ``t0`` before, inside, between or after the segments, or on a
    boundary — or anywhere at all."""
    candidates = [0.0]
    for i, (a, b, _) in enumerate(segments):
        candidates += [a, b, (a + b) / 2]
        if i + 1 < len(segments) and segments[i + 1][0] > b:
            candidates.append((b + segments[i + 1][0]) / 2)
    if segments:
        candidates += [segments[0][0] / 2, segments[-1][1] + 1.0]
    return draw(st.sampled_from(candidates) | st.floats(0.0, 250.0))


@st.composite
def profiles_on(draw, times) -> list[tuple[float, float, float]]:
    """Segments whose every boundary is one of ``times``."""
    distinct = sorted(set(times))
    if len(distinct) < 2:
        return []
    bounds = sorted(draw(st.lists(st.sampled_from(distinct), unique=True)))
    return [
        (a, b, draw(st.floats(0.05, 1.0)))
        for a, b in zip(bounds, bounds[1:])
        if draw(st.booleans())
    ]


volumes = st.floats(0.0, 60.0)
speeds = st.floats(0.5, 10.0)
comm_models = st.sampled_from([CUT_THROUGH, CommModel(hop_delay=0.75), STORE_AND_FORWARD])


@st.composite
def near_bound_sweeps(draw):
    """A step transfer whose link profile has edges within ``_FEPS`` of the
    contention-free finish ``d + cost / speed``."""
    d = draw(st.floats(0.0, 1000.0))
    cost = draw(st.floats(3 * _FEPS, 1000.0))
    speed = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0, 10.0]))
    free = d + cost / speed
    offsets = draw(
        st.lists(st.floats(-_FEPS, _FEPS), min_size=1, max_size=4, unique=True)
    )
    edges = sorted({free + off for off in offsets} | {free + 1.0})
    segments = [
        (t0, t1, draw(st.sampled_from([0.25, 0.5, 1.0])))
        for i, (t0, t1) in enumerate(zip(edges, edges[1:]))
        if i == len(edges) - 2 or draw(st.booleans())
    ]
    start = draw(st.floats(d, free))
    if start < segments[0][0] and draw(st.booleans()):  # busy from before too
        segments.insert(0, (start, segments[0][0], 0.5))
    return d, cost, speed, segments


class TestStepProbe:
    @SWEEPS
    @given(data=st.data(), segments=profiles(), volume=volumes, speed=speeds)
    def test_matches_from_zero_scan(self, data, segments, volume, speed):
        t0 = data.draw(start_times(segments))
        assert probe_step_finish(segments, t0, volume, speed) == reference_probe(
            segments, t0, volume, speed
        )

    @SWEEPS
    @given(case=near_bound_sweeps())
    def test_never_finishes_before_the_safe_bound(self, case):
        # The sweep stops at ``volume - _FEPS``, so a boundary can end it
        # before ``d + cost / speed``; BBSA's route search prunes on this
        # bound instead.
        d, cost, speed, segments = case
        finish = probe_step_finish(segments, d, cost, speed)
        assert finish >= d + (cost - 2 * _FEPS) / speed


class TestForwardThroughLink:
    @SWEEPS
    @given(data=st.data(), segments=profiles(), volume=volumes, speed=speeds)
    def test_step_arrival(self, data, segments, volume, speed):
        t0 = data.draw(start_times(segments))
        arrival = Cumulative.step(t0, volume)
        self._assert_same(BandwidthProfile(segments), arrival, speed)

    @SWEEPS
    @given(
        data=st.data(),
        upstream=profiles(),
        segments=profiles(),
        volume=volumes,
        speeds=st.tuples(speeds, speeds),
    )
    def test_ramped_arrival(self, data, upstream, segments, volume, speeds):
        # A previous hop's departure: jumps and constant-rate pieces.
        t0 = data.draw(start_times(segments))
        arrival, _ = forward_through_link(
            BandwidthProfile(upstream), Cumulative.step(t0, volume), speeds[0]
        )
        self._assert_same(BandwidthProfile(segments), arrival, speeds[1])

    @SWEEPS
    @given(data=st.data(), upstream=profiles(), volume=volumes, speeds=st.tuples(speeds, speeds))
    def test_boundaries_on_arrival_breakpoints(self, data, upstream, volume, speeds):
        t0 = data.draw(start_times(upstream))
        arrival, _ = forward_through_link(
            BandwidthProfile(upstream), Cumulative.step(t0, volume), speeds[0]
        )
        segments = data.draw(profiles_on([t for t, _ in arrival.points]))
        self._assert_same(BandwidthProfile(segments), arrival, speeds[1])

    @SWEEPS
    @given(
        data=st.data(),
        hops=st.lists(st.tuples(profiles(), speeds), min_size=3, max_size=5),
        volume=volumes,
        comm=comm_models,
    )
    def test_route_chain(self, data, hops, volume, comm):
        # Each hop's arrival is built from the previous hop's departure the
        # way BandwidthLinkState.schedule_edge builds it.
        arrival = Cumulative.step(data.draw(start_times(hops[0][0])), volume)
        for segments, speed in hops:
            departure = self._assert_same(BandwidthProfile(segments), arrival, speed)
            if comm.mode == "cut-through":
                arrival = departure.shifted(comm.hop_delay)
            else:
                arrival = Cumulative.step(departure.finish_time() + comm.hop_delay, volume)

    @SWEEPS
    @given(
        data=st.data(),
        upstream=profiles(),
        segments=profiles(),
        volumes=st.tuples(volumes, volumes),
        speeds=st.tuples(speeds, speeds),
    )
    def test_reserve(self, data, upstream, segments, volumes, speeds):
        # Two ramped transfers reserved one after the other on one link: the
        # second sees the first one's usage overlaid by add_usage.
        profile = BandwidthProfile(list(segments))
        reference = BandwidthProfile(list(segments))
        for volume in volumes:
            arrival, _ = forward_through_link(
                BandwidthProfile(upstream),
                Cumulative.step(data.draw(start_times(segments)), volume),
                speeds[0],
            )
            departure, usage = forward_through_link(
                profile, arrival, speeds[1], reserve=True
            )
            ref_departure, ref_usage = reference_forward(reference, arrival, speeds[1])
            if arrival.final_volume > _FEPS:  # an empty transfer reserves nothing
                reference.add_usage(ref_usage)
            assert departure.points == ref_departure.points
            assert usage == ref_usage
            assert profile.segments == reference.segments

    @SWEEPS
    @given(
        data=st.data(),
        hops=st.lists(st.tuples(profiles(), speeds), min_size=2, max_size=4),
        volume=volumes,
        comm=comm_models,
    )
    def test_waiting_in_one_step_changes_no_result(self, data, hops, volume, comm):
        # The route chain twice, reserving every hop: as the sweep runs now,
        # and stepping over every boundary while the transfer waits, each
        # chain building its next arrival from its own departure.
        arrival = old_arrival = Cumulative.step(data.draw(start_times(hops[0][0])), volume)
        for segments, speed in hops:
            profile = BandwidthProfile(list(segments))
            old_profile = BandwidthProfile(list(segments))
            departure, usage = forward_through_link(profile, arrival, speed, reserve=True)
            old_departure, old_usage = reference_forward(
                old_profile, old_arrival, speed, wait_in_one_step=False
            )
            if old_arrival.final_volume > _FEPS:  # an empty transfer reserves nothing
                old_profile.add_usage(old_usage)
            assert usage == old_usage
            assert profile.segments == old_profile.segments
            assert departure.finish_time() == old_departure.finish_time()
            for t, _ in departure.points + old_departure.points:
                assert departure.value(t) == old_departure.value(t)
            assert set(departure.points) <= set(old_departure.points)
            if comm.mode == "cut-through":
                arrival = departure.shifted(comm.hop_delay)
                old_arrival = old_departure.shifted(comm.hop_delay)
            else:
                arrival = Cumulative.step(departure.finish_time() + comm.hop_delay, volume)
                old_arrival = Cumulative.step(
                    old_departure.finish_time() + comm.hop_delay, volume
                )

    def test_waiting_omits_the_boundaries_it_crosses(self):
        # The first link is busy over [0, 1), so with a hop delay of 0.75 the
        # second hop's arrival is flat over [0.75, 1.75); the second link's
        # boundary at 1.0 falls inside that wait.  The departure used to
        # keep a point there and is the same function without it.
        busy = [(0.0, 1.0, 1.0)]
        first, _ = forward_through_link(BandwidthProfile(busy), Cumulative.step(0.0, 1.0), 1.0)
        arrival = first.shifted(0.75)
        assert arrival.points == [(0.75, 0.0), (1.75, 0.0), (2.75, 1.0)]
        departure, usage = forward_through_link(BandwidthProfile(busy), arrival, 1.0)
        old_departure, old_usage = reference_forward(
            BandwidthProfile(busy), arrival, 1.0, wait_in_one_step=False
        )
        assert departure.points == [(0.75, 0.0), (1.75, 0.0), (2.75, 1.0)]
        assert old_departure.points == [(0.75, 0.0), (1.0, 0.0), (1.75, 0.0), (2.75, 1.0)]
        assert usage == old_usage == [UsageSegment(1.75, 2.75, 1.0)]

    @pytest.mark.parametrize("ramped", [False, True])
    def test_long_sweep_computes_its_bound(self, monkeypatch, ramped):
        # 60 short segments: the loop passes the iteration bound's least
        # value, so the sweep computes the bound, which must not trip.
        counted = []
        count = bandwidth._event_count

        def counting(*args):
            counted.append(count(*args))
            return counted[-1]

        monkeypatch.setattr(bandwidth, "_event_count", counting)
        segments = [(2.0 * k + 0.5, 2.0 * k + 1.5, 0.5) for k in range(60)]
        arrival = Cumulative.step(0.0, 100.0)
        if ramped:
            arrival, _ = forward_through_link(BandwidthProfile([(0.25, 30.0, 0.75)]), arrival, 4.0)
        self._assert_same(BandwidthProfile(segments), arrival, 1.0)
        # The bound counts the distinct event times: ``t0``, the arrival's
        # jumps and rate-piece ends, and the profile boundaries after ``t0``.
        t0 = arrival.start_time
        events = {t0}
        points = arrival.points
        for (ta, va), (tb, vb) in zip(points, points[1:]):
            if vb > va:
                events.update((ta, tb))
        events.update(t for seg in segments for t in seg[:2] if t > t0)
        assert counted == [len(events)]

    @staticmethod
    def _assert_same(profile, arrival, speed):
        departure, usage = forward_through_link(profile, arrival, speed)
        ref_departure, ref_usage = reference_forward(profile, arrival, speed)
        assert departure.points == ref_departure.points
        assert usage == ref_usage
        assert departure.finish_time() == ref_departure.finish_time()
        return departure


class TestCumulativeValue:
    @SWEEPS
    @given(
        steps=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), min_size=1, max_size=8
        ),
        t=st.floats(-1.0, 40.0),
    )
    def test_matches_pairwise_scan(self, steps, t):
        points, ct, cv = [], 0.0, 0.0
        for dt, dv in steps:
            ct += dt
            cv += dv
            points.append((ct, cv))
        c = Cumulative(points)
        for probe in [t, *(p[0] for p in points)]:
            assert c.value(probe) == _reference_value(points, probe)


def _reference_value(pts, t):
    """``Cumulative.value`` as it was: a linear scan over point pairs."""
    if t < pts[0][0]:
        return 0.0
    if t >= pts[-1][0]:
        return pts[-1][1]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            if t == t1 or t1 == t0:
                continue
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return pts[-1][1]
