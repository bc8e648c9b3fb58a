"""The bounded optimal-insertion scan vs the full scan, on deep link queues.

:func:`repro.linksched.optimal_insertion.schedule_edge_optimal` scans each
link queue from tail to head and stops at the first slot proving every gap
in front of it infeasible.  The oracle,
:func:`tests.naive_reference.naive_schedule_edge_optimal`, scans every slot.
Both must pick the same gap, so after every booking the arrivals and every
link's slot list must be equal with ``==``.

The bookings share one chain of links, so queues grow to the full booking
count and deferral slack comes from the later links.  Costs include
``5e-324``, ``1e-300`` and ``1e-12``; the first two vanish next to the queue
times, so their slots have zero length.  Ready times sit on slot boundaries,
within ``EPS`` of them, or anywhere up to the queue's last finish.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.linksched.causality import check_route_causality
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array
from repro.network.routing import bfs_route
from repro.types import EPS
from tests.naive_reference import naive_schedule_edge_optimal

DEEP = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: processors on the shared chain (so up to four links per route)
CHAIN = 5

costs = st.sampled_from([5e-324, 1e-300, 1e-12]) | st.floats(0.05, 20.0)
#: where a ready time sits relative to a drawn slot boundary
offsets = st.sampled_from([0.0, EPS, -EPS, EPS / 2, -EPS / 2, 1e-12, -1e-12])


@st.composite
def bookings(draw):
    """40-200 ``(first, last, cost, ready)`` draws; ``ready`` is resolved
    against the live queue when the booking is made."""
    n = draw(st.integers(40, 200))
    out = []
    for _ in range(n):
        first = draw(st.integers(0, CHAIN - 2))
        last = draw(st.integers(first + 1, CHAIN - 1))
        cost = draw(costs)
        # (on a boundary?, boundary pick, offset, free ready time)
        ready = (
            draw(st.booleans()),
            draw(st.integers(0, 10**6)),
            draw(offsets),
            draw(st.floats(0.0, 1.0)),
        )
        out.append((first, last, cost, ready))
    return out


def _ready_time(state: LinkScheduleState, lid: int, spec) -> float:
    on_boundary, pick, offset, frac = spec
    starts, finishes = state.queue_arrays(lid)[1:]
    horizon = finishes[-1] if finishes else 50.0
    if on_boundary and starts:
        bounds = starts + finishes
        return max(0.0, bounds[pick % len(bounds)] + offset)
    return frac * horizon


def _slot_lists(state: LinkScheduleState, lids) -> dict:
    return {lid: state.slots(lid) for lid in lids}


@pytest.mark.parametrize(
    "comm",
    [CUT_THROUGH, CommModel(hop_delay=0.5), STORE_AND_FORWARD],
    ids=["cut-through", "cut-through-hop", "store-and-forward"],
)
class TestBoundedScan:
    @DEEP
    @given(
        plan=bookings(),
        speeds=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=CHAIN - 1, max_size=CHAIN - 1
        ),
    )
    def test_matches_full_scan_after_every_booking(self, comm, plan, speeds):
        net = linear_array(CHAIN, link_speed=iter(speeds).__next__)
        procs = [p.vid for p in net.processors()]
        lids = [l.lid for l in bfs_route(net, procs[0], procs[-1])]
        bounded, full = LinkScheduleState(), LinkScheduleState()
        for k, (first, last, cost, ready_spec) in enumerate(plan):
            route = bfs_route(net, procs[first], procs[last])
            ready = _ready_time(full, route[0].lid, ready_spec)
            edge = (k, k + 1)
            arrival = schedule_edge_optimal(bounded, edge, route, cost, ready, comm)
            expected = naive_schedule_edge_optimal(full, edge, route, cost, ready, comm)
            assert arrival == expected
            assert _slot_lists(bounded, lids) == _slot_lists(full, lids)


#: ``(first, last, cost, ready)`` bookings on a 5-processor chain with link
#: speeds 2, 1, 1, 0.5 and hop delay 0.5.  The last booking's ready time sits
#: within ``EPS`` of a queued slot's deferral bound: the scan's rounded test
#: admits that gap, but pushing the slot would overrun its slack by ~8e-17
#: beyond ``EPS``, so the commit's cascade check used to raise.
EPS_BOUNDARY_PLAN = [
    (3, 4, 5e-324, 25.0),
    (0, 2, 5e-324, 17.748597838757878),
    (3, 4, 5e-324, 1.9703526228089563e-100),
    (3, 4, 5e-324, 25.0),
    (2, 3, 5e-324, 35.0),
    (2, 3, 5e-324, 1.4726931687741998),
    (0, 4, 5e-324, 17.748597839257876),
    (3, 4, 5e-324, 25.0),
    (0, 4, 12.79466133869644, 16.861167946819982),
    (0, 1, 5e-324, 17.748597838757878),
    (3, 4, 5e-324, 25.0),
    (1, 4, 5e-324, 18.248597840257876),
]


def _book_plan(book):
    net = linear_array(CHAIN, link_speed=iter([2.0, 1.0, 1.0, 0.5]).__next__)
    procs = [p.vid for p in net.processors()]
    comm = CommModel(hop_delay=0.5)
    state = LinkScheduleState()
    arrivals = []
    for k, (first, last, cost, ready) in enumerate(EPS_BOUNDARY_PLAN):
        route = bfs_route(net, procs[first], procs[last])
        arrivals.append(book(state, (k, k + 1), route, cost, ready, comm))
    for k, (_, _, cost, ready) in enumerate(EPS_BOUNDARY_PLAN):
        check_route_causality(state, net, (k, k + 1), cost, ready, comm=comm)
    return arrivals, _slot_lists(state, [l.lid for l in net.links()])


_BOOKERS = {"fast": schedule_edge_optimal, "probe-commit": naive_schedule_edge_optimal}


@pytest.mark.parametrize("scan", list(_BOOKERS))
def test_gap_at_eps_boundary_is_committable(scan):
    arrivals, slots = _book_plan(_BOOKERS[scan])
    assert len(arrivals) == len(EPS_BOUNDARY_PLAN)
    other = "probe-commit" if scan == "fast" else "fast"
    assert (arrivals, slots) == _book_plan(_BOOKERS[other])


def test_slots_scanned_stays_within_the_full_scan():
    """``optimal.slots_scanned`` never exceeds the slots the full scan
    visits (every slot queued on the route), and the bounded scan visits
    strictly fewer once queues run deep ahead of the ready times."""
    net = linear_array(CHAIN)
    procs = [p.vid for p in net.processors()]
    route = bfs_route(net, procs[0], procs[-1])
    state = LinkScheduleState()
    full_total = 0
    obs.enable(obs.NullSink())
    obs.reset()
    try:
        for k in range(120):
            full = sum(len(state.slots(link.lid)) for link in route)
            before = obs.METRICS.counter("optimal.slots_scanned").value
            schedule_edge_optimal(state, (k, k + 1), route, 2.0, float(k))
            scanned = obs.METRICS.counter("optimal.slots_scanned").value - before
            assert scanned <= full
            full_total += full
        bounded_total = obs.METRICS.counter("optimal.slots_scanned").value
    finally:
        obs.disable()
    assert len(state.slots(route[0].lid)) == 120
    assert bounded_total < full_total
