"""The t0-anchored fluid sweeps vs the from-zero scans they replaced.

:func:`repro.linksched.bandwidth.probe_step_finish` bisects to the first
profile segment ending after the transfer's start ``t0``, and
:func:`~repro.linksched.bandwidth.forward_through_link` takes breakpoints
from that segment on and tracks the used bandwidth with a forward pointer.
Both claim the same floating-point operations in the same order as the
versions that walked every segment from time 0, so results must be equal
with ``==`` — departure points, usage segments and finish times — for a
``t0`` before, inside, between and after the segments, and exactly on
segment boundaries.  The reference scans below are copies of those
from-zero versions.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SchedulingError
from repro.linksched.bandwidth import (
    _FEPS,
    BandwidthProfile,
    Cumulative,
    UsageSegment,
    forward_through_link,
    probe_step_finish,
)

SWEEPS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_forward(profile, arrival, speed):
    """The sweep as it was: every breakpoint, ``used_at`` scanned from 0."""
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
    event_times = sorted(
        {t0, *jumps, *(t for p in rate_pieces for t in (p[0], p[1])),
         *(t for t in breakpoints if t > t0)}
    )

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


volumes = st.floats(0.0, 60.0)
speeds = st.floats(0.5, 10.0)


class TestStepProbe:
    @SWEEPS
    @given(data=st.data(), segments=profiles(), volume=volumes, speed=speeds)
    def test_matches_from_zero_scan(self, data, segments, volume, speed):
        t0 = data.draw(start_times(segments))
        assert probe_step_finish(segments, t0, volume, speed) == reference_probe(
            segments, t0, volume, speed
        )


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

    @staticmethod
    def _assert_same(profile, arrival, speed):
        departure, usage = forward_through_link(profile, arrival, speed)
        ref_departure, ref_usage = reference_forward(profile, arrival, speed)
        assert departure.points == ref_departure.points
        assert usage == ref_usage
        assert departure.finish_time() == ref_departure.finish_time()


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
