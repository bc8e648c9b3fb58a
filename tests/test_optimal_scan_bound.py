"""The bounded optimal-insertion scan vs the full scan, on deep link queues.

With observability off, :func:`repro.linksched.optimal_insertion.schedule_edge_optimal`
books through the fused fast path, whose tail->head scan stops at the first
slot proving every gap in front of it infeasible.  With observability on it
goes through :func:`probe_optimal` + :func:`commit_optimal`, which scan every
slot.  Both must pick the same gap, so after every booking the arrivals and
every link's slot list must be equal with ``==``.

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
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array
from repro.network.routing import bfs_route
from repro.types import EPS

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
            obs.disable()
            arrival = schedule_edge_optimal(bounded, edge, route, cost, ready, comm)
            obs.enable(obs.NullSink())
            try:
                expected = schedule_edge_optimal(full, edge, route, cost, ready, comm)
            finally:
                obs.disable()
            assert arrival == expected
            assert _slot_lists(bounded, lids) == _slot_lists(full, lids)
