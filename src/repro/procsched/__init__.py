"""Processor-side scheduling: per-processor task timelines.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "TaskSlot": "timeline",
    "find_task_gap": "timeline",
    "ProcessorState": "state",
    "TaskPlacement": "state",
})
