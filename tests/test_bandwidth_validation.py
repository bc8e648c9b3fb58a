"""BBSA schedule validation vs the bisect-per-point check it replaced.

:func:`repro.core.validate._validate_bandwidth` evaluates the arrival curve
(and, under cut-through, the previous hop's departure) at each departure
breakpoint through one forward pointer, and skips the hop-to-hop pass when
the arrival *is* the previous departure with no hop delay.  Its outcome must
equal :func:`tests.naive_reference.naive_validate_bandwidth`'s on every
schedule: both pass, or both raise :class:`ValidationError` with the same
first message.  Schedules come from BBSA under cut-through with and without
hop delay and under store-and-forward, untampered and with bookings
tampered: curves shifted by whole units or by amounts near the tolerance,
alone or an arrival together with its departure, a breakpoint raised to
its successor's volume, a breakpoint moved onto its predecessor's time (a
jump), a final volume off by a little, a curve replaced by an equal copy
(so the arrival is no longer the previous departure object), and bookings
swapped between hops.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.bbsa import BBSAScheduler
from repro.core.validate import _validate_bandwidth
from repro.exceptions import ValidationError
from repro.linksched.bandwidth import Cumulative
from repro.linksched.causality import CAUSALITY_EPS
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.network.builders import random_wan
from repro.taskgraph.generators import random_layered_dag

from tests.naive_reference import naive_validate_bandwidth

ORACLE = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

COMMS = [CUT_THROUGH, CommModel(hop_delay=0.5), STORE_AND_FORWARD]

#: what one tamper changes in a booking (swapping it with the next hop's
#: only ever trips the route check, so it is drawn least)
TAMPERS = ["departure", "departure", "arrival", "both", "both", "swap"]

#: shifts of a whole curve: whole units, and amounts around the tolerance
SHIFTS = [-1.0, -0.25, 0.5, -2e-9, -1e-9, -5e-10, 1e-9, -1e-6]


def _outcome(check, schedule):
    try:
        check(schedule, CAUSALITY_EPS)
    except ValidationError as exc:
        return str(exc)
    return None


def _tampered_curve(draw, curve: Cumulative) -> Cumulative:
    pts = list(curve.points)
    kind = draw(st.sampled_from(["shift", "raise", "jump", "volume", "copy"]))
    if kind == "shift":
        dt = draw(st.sampled_from(SHIFTS))
        return Cumulative([(t + dt, v) for t, v in pts])
    k = draw(st.integers(0, len(pts) - 1))
    if kind == "raise" and k + 1 < len(pts):
        pts[k] = (pts[k][0], pts[k + 1][1])
    elif kind == "jump" and k > 0:
        pts[k] = (pts[k - 1][0], pts[k][1])
    elif kind == "volume":
        t, v = pts[-1]
        pts[-1] = (t, v * draw(st.sampled_from([1.0 + 1e-7, 1.0 + 2e-6, 1.5])))
    return Cumulative(pts)


@st.composite
def schedules(draw, comm):
    seed = draw(st.integers(0, 2**16))
    graph = random_layered_dag(draw(st.integers(8, 24)), seed)
    net = random_wan(8, seed)
    schedule = BBSAScheduler(comm=comm).schedule(graph, net)
    state = schedule.bandwidth_state
    routed = [
        e.key for e in graph.edges()
        if state.has_route(e.key) and state.route_of(e.key)
    ]
    for _ in range(draw(st.integers(0, 3)) if routed else 0):
        key = draw(st.sampled_from(routed))
        bookings = state._bookings[key]
        hop = draw(st.integers(0, len(bookings) - 1))
        b = bookings[hop]
        what = draw(st.sampled_from(TAMPERS))
        if what == "swap":
            if len(bookings) > 1:
                other = (hop + 1) % len(bookings)
                bookings[hop], bookings[other] = bookings[other], b
        elif what == "both":
            # Arrival and departure moved together: only the hop-to-hop and
            # start checks can notice.
            dt = draw(st.sampled_from(SHIFTS))
            bookings[hop] = dataclasses.replace(
                b, arrival=b.arrival.shifted(dt), departure=b.departure.shifted(dt)
            )
        else:
            curve = getattr(b, what)
            bookings[hop] = dataclasses.replace(
                b, **{what: _tampered_curve(draw, curve)}
            )
    return schedule


@pytest.mark.parametrize(
    "comm", COMMS, ids=["cut-through", "cut-through-hop", "store-and-forward"]
)
class TestAgainstBisectOracle:
    @ORACLE
    @given(data=st.data())
    def test_same_outcome(self, comm, data):
        schedule = data.draw(schedules(comm))
        assert _outcome(_validate_bandwidth, schedule) == _outcome(
            naive_validate_bandwidth, schedule
        )

    def test_untampered_pass(self, comm, fork8, wan16):
        schedule = BBSAScheduler(comm=comm).schedule(fork8, wan16)
        assert _outcome(_validate_bandwidth, schedule) is None
        assert _outcome(naive_validate_bandwidth, schedule) is None
