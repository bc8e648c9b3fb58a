"""Link scheduling engine: booking communications onto network links.

This package is the substrate the paper's contribution runs on:

- :mod:`repro.linksched.slots` — immutable time slots and gap search,
- :mod:`repro.linksched.state` — per-link indexed queues with undo-logged
  tentative booking (cheap "what if" probes, undone on exit),
- :mod:`repro.linksched.insertion` — BA's basic insertion,
- :mod:`repro.linksched.optimal_insertion` — OIHSA's deferral-based optimal
  insertion (Section 4.4 of the paper),
- :mod:`repro.linksched.bandwidth` — BBSA's bandwidth-shared (fluid) link
  model (Section 5),
- :mod:`repro.linksched.causality` — link-causality checking.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "CommModel": "commmodel",
    "CUT_THROUGH": "commmodel",
    "STORE_AND_FORWARD": "commmodel",
    "TimeSlot": "slots",
    "find_gap": "slots",
    "find_gap_indexed": "slots",
    "LinkScheduleState": "state",
    "schedule_edge_basic": "insertion",
    "deferrable_time": "optimal_insertion",
    "schedule_edge_optimal": "optimal_insertion",
    "Cumulative": "bandwidth",
    "BandwidthProfile": "bandwidth",
    "BandwidthLinkState": "bandwidth",
    "forward_through_link": "bandwidth",
    "check_route_causality": "causality",
})
