"""Link scheduling engine: booking communications onto network links.

This package is the substrate the paper's contribution runs on:

- :mod:`repro.linksched.slots` — immutable time slots and gap search,
- :mod:`repro.linksched.state` — per-link indexed queues with undo-log
  transactions (cheap tentative scheduling / rollback),
- :mod:`repro.linksched.insertion` — BA's basic insertion,
- :mod:`repro.linksched.optimal_insertion` — OIHSA's deferral-based optimal
  insertion (Section 4.4 of the paper),
- :mod:`repro.linksched.bandwidth` — BBSA's bandwidth-shared (fluid) link
  model (Section 5),
- :mod:`repro.linksched.causality` — link-causality checking.
"""

from repro.linksched.commmodel import CommModel, CUT_THROUGH, STORE_AND_FORWARD
from repro.linksched.slots import TimeSlot, find_gap, find_gap_indexed
from repro.linksched.state import LinkScheduleState
from repro.linksched.insertion import probe_basic, schedule_edge_basic, probe_route_basic
from repro.linksched.optimal_insertion import (
    deferrable_time,
    schedule_edge_optimal,
)
from repro.linksched.bandwidth import (
    Cumulative,
    BandwidthProfile,
    BandwidthLinkState,
    forward_through_link,
)
from repro.linksched.causality import check_route_causality

__all__ = [
    "CommModel",
    "CUT_THROUGH",
    "STORE_AND_FORWARD",
    "TimeSlot",
    "find_gap",
    "find_gap_indexed",
    "LinkScheduleState",
    "probe_basic",
    "schedule_edge_basic",
    "probe_route_basic",
    "deferrable_time",
    "schedule_edge_optimal",
    "Cumulative",
    "BandwidthProfile",
    "BandwidthLinkState",
    "forward_through_link",
    "check_route_causality",
]
