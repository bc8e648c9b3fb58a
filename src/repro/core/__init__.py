"""Schedulers: the paper's contribution plus baselines.

- :class:`ClassicScheduler` — contention-free ideal model (the "traditional"
  list scheduling the paper argues against),
- :class:`BAScheduler` — Sinnen & Sousa's Basic Algorithm (BFS routing,
  basic insertion), the paper's comparison baseline,
- :class:`OIHSAScheduler` — Optimal Insertion Hybrid Scheduling Algorithm,
- :class:`BBSAScheduler` — Bandwidth Based Scheduling Algorithm.

All consume a :class:`repro.taskgraph.TaskGraph` and a
:class:`repro.network.NetworkTopology` and produce a validated
:class:`repro.core.schedule.Schedule`.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`), and :data:`SCHEDULERS` imports a scheduler's module
only when that scheduler is looked up.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Iterator, Mapping

from repro import _lazy

if TYPE_CHECKING:
    from repro.core.annealing import AnnealingScheduler
    from repro.core.base import ContentionScheduler
    from repro.core.genetic import GeneticScheduler

    #: What a ``SCHEDULERS`` entry is: the two mapping searches are not
    #: ``ContentionScheduler`` subclasses.
    SchedulerClass = type[ContentionScheduler | AnnealingScheduler | GeneticScheduler]

#: Public name -> the submodule defining it.
_EXPORTS = {
    "Schedule": "schedule",
    "ContentionScheduler": "base",
    "ClassicScheduler": "classic",
    "BAScheduler": "ba",
    "OIHSAScheduler": "oihsa",
    "BBSAScheduler": "bbsa",
    "HEFTScheduler": "heft",
    "CPOPScheduler": "cpop",
    "AnnealingScheduler": "annealing",
    "GeneticScheduler": "genetic",
    "PacketBAScheduler": "packetba",
    "BatchMappingEvaluator": "batch",
    "simulate_mapping": "mapping",
    "resimulate": "eventsim",
    "SimReport": "eventsim",
    "processor_breakdown": "analysis",
    "schedule_critical_chain": "analysis",
    "contention_hotspots": "analysis",
    "ChainSegment": "explain",
    "ResourceTimeline": "explain",
    "ScheduleExplanation": "explain",
    "explain": "explain",
    "utilization_timelines": "explain",
    "schedule_to_json": "io",
    "schedule_from_json": "io",
    "replay_under_contention": "replay",
    "contention_penalty": "replay",
    "validate_schedule": "validate",
    "makespan": "metrics",
    "speedup": "metrics",
    "efficiency": "metrics",
    "schedule_length_ratio": "metrics",
    "link_utilization": "metrics",
    "improvement_ratio": "metrics",
}

__getattr__, __dir__, __all__ = _lazy.attach(__name__, _EXPORTS)


class _Schedulers(Mapping[str, "SchedulerClass"]):
    """Scheduler classes by short name, read-only.

    Looking a name up imports that scheduler's module (and nothing else);
    iterating, ``len`` and ``in`` import nothing.
    """

    def __init__(self, classes: dict[str, str]) -> None:
        #: short name -> class name (a key of ``_EXPORTS``)
        self._classes = classes

    def __getitem__(self, name: str) -> SchedulerClass:
        class_name = self._classes[name]
        cls: SchedulerClass = getattr(
            importlib.import_module(f"repro.core.{_EXPORTS[class_name]}"), class_name
        )
        return cls

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._classes!r})"


#: Registry of scheduler classes by short name (used by experiment configs).
SCHEDULERS: Mapping[str, SchedulerClass] = _Schedulers(
    {
        "classic": "ClassicScheduler",
        "ba": "BAScheduler",
        "oihsa": "OIHSAScheduler",
        "bbsa": "BBSAScheduler",
        "heft": "HEFTScheduler",
        "cpop": "CPOPScheduler",
        "annealing": "AnnealingScheduler",
        "genetic": "GeneticScheduler",
        "packet-ba": "PacketBAScheduler",
    }
)
__all__.append("SCHEDULERS")
