"""The fluid link profile's overlay vs its oracle.

:meth:`repro.linksched.bandwidth.BandwidthProfile.add_usage` rebuilds only
the run of stored segments that the new usage overlaps or abuts, as one
running sum from 0.0, and keeps every segment outside it as stored.  :func:`tests.naive_reference
.naive_overlay` defines that result with the seed's whole-profile rebuild
applied to the region, so the two must agree segment for segment with
``==``, and raise the same message on an over-commit.  The profiles below
include runs of abutting segments whose fractions do not cancel exactly
(0.7 / 0.1 / 0.3), where a rebuild from time 0 re-rounds fractions it never
needed to touch; the usage lies in gaps, abuts segments on either side,
overlaps several, or lies before or after all of them.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import SchedulingError
from repro.linksched.bandwidth import BandwidthProfile, UsageSegment
from tests.naive_reference import naive_overlay, seed_rebuild

OVERLAYS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: fractions whose sums and differences re-round
FRACTIONS = [0.7, 0.1, 0.3, 0.2, 0.6, 0.9, 1 / 3, 2 / 3, 0.05, 1.0]

fractions = st.sampled_from(FRACTIONS) | st.floats(0.01, 1.0)


@st.composite
def profiles(draw) -> list[tuple[float, float, float]]:
    """Sorted, non-overlapping segments, often in runs that abut exactly."""
    segments = []
    t = draw(st.sampled_from([0.0, 0.5, 3.0]))
    for _ in range(draw(st.integers(0, 9))):
        t += draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]) | st.floats(0.0, 5.0))
        end = t + draw(st.sampled_from([1.0, 0.5, 0.1]) | st.floats(0.01, 5.0))
        segments.append((t, end, draw(fractions)))
        t = end
    return segments


def _times(segments) -> list[float]:
    """Usage endpoints worth trying: every boundary, the midpoints of
    segments and gaps, and times before and after the whole profile."""
    times = [0.0, 100.0]
    for i, (a, b, _) in enumerate(segments):
        times += [a, b, (a + b) / 2]
        if i + 1 < len(segments):
            times.append((b + segments[i + 1][0]) / 2)
    if segments:
        times += [segments[0][0] / 2, segments[-1][1] + 1.0]
    return sorted(set(times))


@st.composite
def sorted_spans(draw, segments) -> list[float]:
    """Flat sorted, disjoint usage, as a sweep returns it, plus the odd
    zero-length or zero-fraction span."""
    times = _times(segments)
    picks = sorted(draw(st.lists(st.sampled_from(times), min_size=2, max_size=6)))
    spans: list[float] = []
    for start, finish in zip(picks, picks[1:]):
        if draw(st.booleans()):
            fraction = draw(fractions | st.just(0.0))
            spans += [start, finish, fraction]
    if draw(st.booleans()):  # a zero-length span somewhere
        t = draw(st.sampled_from(times))
        spans += [t, t, draw(fractions)]
    return spans


@st.composite
def any_usage(draw, segments) -> list[UsageSegment]:
    """Usage in any order, overlapping or not."""
    times = _times(segments)
    usage = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.sampled_from(times))
        finish = draw(st.sampled_from(times))
        usage.append(UsageSegment(start, finish, draw(fractions | st.just(0.0))))
    return usage


def _assert_matches_oracle(segments, spans) -> None:
    profile = BandwidthProfile(list(segments))
    try:
        expected = naive_overlay(BandwidthProfile(list(segments)), spans)
    except SchedulingError as exc:
        with pytest.raises(SchedulingError) as got:
            profile._overlay(spans)
        assert str(got.value) == str(exc)
        assert profile.segments == segments  # a rejected overlay changes nothing
        return
    profile._overlay(spans)
    assert profile.segments == expected


class TestRegionOverlay:
    @OVERLAYS
    @given(data=st.data(), segments=profiles())
    def test_sorted_usage_matches_oracle(self, data, segments):
        _assert_matches_oracle(segments, data.draw(sorted_spans(segments)))

    @OVERLAYS
    @given(data=st.data(), segments=profiles())
    def test_any_usage_matches_oracle(self, data, segments):
        # Unsorted or overlapping usage from ``add_usage`` takes the dict path.
        usage = data.draw(any_usage(segments))
        _assert_matches_oracle(
            segments, [x for u in usage for x in (u.start, u.finish, u.fraction)]
        )

    @OVERLAYS
    @given(data=st.data(), segments=profiles())
    def test_repeated_overlays_match_oracle(self, data, segments):
        # A profile built by earlier overlays, as BBSA builds one.
        profile = BandwidthProfile([])
        expected: list[tuple[float, float, float]] = []
        for a, b, used in segments:
            try:
                expected = naive_overlay(BandwidthProfile(list(expected)), [a, b, used])
            except SchedulingError:
                continue
            profile._overlay([a, b, used])
            assert profile.segments == expected
        _assert_matches_oracle(profile.segments, data.draw(sorted_spans(segments)))

    def test_untouched_fraction_is_not_re_rounded(self):
        segments = [(0.0, 1.0, 0.7), (1.0, 2.0, 0.1)]
        profile = BandwidthProfile(list(segments))
        profile.add_usage([UsageSegment(5.0, 6.0, 0.5)])
        assert profile.segments == [*segments, (5.0, 6.0, 0.5)]
        # The rebuild from time 0 rewrote the second fraction.
        rebuilt = seed_rebuild(segments, [(5.0, 6.0, 0.5)])
        assert rebuilt[1][2] == 0.09999999999999998

    def test_region_is_one_running_sum(self):
        # Usage abutting a stored segment takes it into the region, which is
        # re-derived from 0.0: the new piece reads 0.7 + (-0.7 + 0.1).
        profile = BandwidthProfile([(0.0, 1.0, 0.7)])
        profile.add_usage([UsageSegment(1.0, 2.0, 0.1)])
        assert profile.segments == [(0.0, 1.0, 0.7), (1.0, 2.0, 0.09999999999999998)]

    def test_touching_usage_merges_with_the_region(self):
        profile = BandwidthProfile([(0.0, 1.0, 0.5), (3.0, 4.0, 0.25)])
        profile.add_usage([UsageSegment(1.0, 3.0, 0.5)])
        assert profile.segments == [(0.0, 3.0, 0.5), (3.0, 4.0, 0.25)]

    def test_rebuilt_end_merges_with_untouched_neighbour(self):
        # Both 1.0: the region's first segment abuts the untouched one.
        profile = BandwidthProfile([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)])
        profile.add_usage([UsageSegment(2.0, 3.0, 0.5)])
        assert profile.segments == [(0.0, 2.0, 1.0), (2.0, 3.0, 0.5)]

    def test_dead_usage_changes_nothing(self):
        segments = [(0.0, 1.0, 0.7), (1.0, 2.0, 0.1)]
        profile = BandwidthProfile(list(segments))
        profile.add_usage([UsageSegment(3.0, 3.0, 0.5), UsageSegment(4.0, 5.0, 0.0)])
        assert profile.segments == segments

    def test_overcommit_message(self):
        profile = BandwidthProfile([(0.0, 2.0, 0.8)])
        with pytest.raises(SchedulingError, match=r"over-committed: used bandwidth 1\.1"):
            profile.add_usage([UsageSegment(1.0, 3.0, 0.3)])
        assert profile.segments == [(0.0, 2.0, 0.8)]

    def test_negative_fraction_rejected(self):
        with pytest.raises(SchedulingError, match="negative usage fraction"):
            BandwidthProfile([])._overlay([0.0, 1.0, -0.5])
