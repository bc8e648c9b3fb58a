"""Observability for the scheduling pipeline: events, metrics, profiling.

Dependency-free (stdlib only) and **off by default**: every instrumentation
site in the schedulers guards on ``OBS.on`` — a single attribute test — so
the disabled overhead is unmeasurable.  Turn it on around a run::

    from repro import obs

    obs.enable()                        # events -> in-memory ListSink
    schedule = OIHSAScheduler().schedule(graph, net)
    print(schedule.stats.to_text())     # counters + phase timings of the run
    obs.disable()

or stream the decision log to disk::

    obs.enable(obs.JsonlSink("events.jsonl"))
    ...
    obs.disable()                       # closes the sink

The three pillars live in sibling modules:

- :mod:`repro.obs.events`  — typed event bus (decision tracing),
- :mod:`repro.obs.metrics` — counters / gauges / histograms with
  snapshot + diff,
- :mod:`repro.obs.profile` — ``span()`` phase timers.

CLI surfaces: ``python -m repro schedule --stats --trace-out events.jsonl``
and ``python -m repro profile``.  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import (
    BUS,
    EVENT_KINDS,
    Event,
    EventBus,
    JsonlSink,
    ListSink,
    NullSink,
    read_jsonl,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Snapshot,
    diff_snapshots,
    quantile_from_buckets,
)
from repro.obs.profile import PROFILER, PhaseProfiler, Timings, diff_timings, span


@dataclass
class ScheduleStats:
    """Observability capture for one ``schedule()`` call.

    Attached as ``Schedule.stats`` by every scheduler built on
    :func:`capture_stats` (the list schedulers and the mapping searches)
    whenever observability is enabled; ``None`` otherwise.  ``metrics`` is a
    snapshot *diff* (only what this run did), ``timings`` likewise, and
    ``events`` holds the run's decision log when the bus sink keeps events
    in memory (empty for streaming JSONL sinks).
    """

    metrics: Snapshot = field(default_factory=dict)
    timings: Timings = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)

    def counter(self, name: str) -> float:
        """Value of one counter during the run (0 if never incremented)."""
        return self.metrics.get("counters", {}).get(name, 0.0)

    def to_dict(self) -> dict:
        """JSON-ready form of the capture (inverse of :meth:`from_dict`).

        Used wherever a capture crosses a process or disk boundary: the
        parallel sweep runner ships per-worker captures back to the parent,
        and the experiment result cache persists them between sweeps.
        """
        return {
            "metrics": self.metrics,
            "timings": self.timings,
            "events": [
                {"kind": e.kind, "t": e.t, "data": e.data} for e in self.events
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScheduleStats":
        """Rebuild a capture serialized by :meth:`to_dict`."""
        return cls(
            metrics=doc.get("metrics", {}),
            timings=doc.get("timings", {}),
            events=[
                Event(kind=d["kind"], t=d.get("t"), data=d.get("data", {}))
                for d in doc.get("events", [])
            ],
        )

    def events_of(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def to_text(self) -> str:
        parts = [MetricsRegistry.render_text(self.metrics)]
        if self.timings:
            width = max(len(p) for p in self.timings)
            parts.append(
                "\n".join(
                    f"{phase:<{width}}  {rec['total'] * 1e3:9.3f} ms  "
                    f"x{int(rec['count'])}"
                    for phase, rec in sorted(self.timings.items())
                )
            )
        return "\n\n".join(parts)


class _Obs:
    """Facade bundling the bus, registry and profiler behind one switch."""

    __slots__ = ("on", "bus", "metrics", "profiler")

    def __init__(self) -> None:
        self.on = False
        self.bus = BUS
        self.metrics = METRICS
        self.profiler = PROFILER

    def emit(self, kind: str, t: float | None = None, **data: object) -> None:
        self.bus.emit(kind, t, **data)


#: The process-wide switchboard; hot paths test ``OBS.on`` and nothing else.
OBS = _Obs()


class StatsCapture:
    """The metrics, timings and event marks taken when a run starts.

    :meth:`finish` turns them into the run's :class:`ScheduleStats`.  Take
    one through :func:`capture_stats`, which skips the snapshots entirely
    with observability off.
    """

    __slots__ = ("_metrics", "_timings", "_event_mark")

    def __init__(self) -> None:
        self._metrics = OBS.metrics.snapshot()
        self._timings = OBS.profiler.snapshot()
        self._event_mark = OBS.bus.mark()

    def finish(self, gauges: dict[str, float] | None = None) -> ScheduleStats:
        """What the run did since the marks; ``gauges`` are set first."""
        for name, value in (gauges or {}).items():
            OBS.metrics.gauge(name).set(value)
        return ScheduleStats(
            metrics=diff_snapshots(self._metrics, OBS.metrics.snapshot()),
            timings=diff_timings(self._timings, OBS.profiler.snapshot()),
            events=OBS.bus.since(self._event_mark),
        )


def capture_stats() -> StatsCapture | None:
    """Start a ``schedule()`` call's capture; None with observability off."""
    return StatsCapture() if OBS.on else None


def enable(sink: NullSink | ListSink | JsonlSink | None = None) -> None:
    """Turn observability on, sending events to ``sink`` (default ListSink)."""
    BUS.sink = sink if sink is not None else ListSink()
    BUS.enabled = True
    PROFILER.enabled = True
    OBS.on = True


def disable() -> None:
    """Turn observability off and close the active sink."""
    OBS.on = False
    BUS.enabled = False
    PROFILER.enabled = False
    BUS.sink.close()
    BUS.sink = NullSink()


def is_enabled() -> bool:
    return OBS.on


def reset() -> None:
    """Zero all instruments and replace the sink (test isolation)."""
    METRICS.reset()
    PROFILER.reset()
    BUS.sink = ListSink() if OBS.on else NullSink()


__all__ = [
    "OBS",
    "BUS",
    "METRICS",
    "PROFILER",
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "JsonlSink",
    "ListSink",
    "NullSink",
    "read_jsonl",
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Snapshot",
    "diff_snapshots",
    "quantile_from_buckets",
    "PhaseProfiler",
    "Timings",
    "diff_timings",
    "span",
    "ScheduleStats",
    "StatsCapture",
    "capture_stats",
    "enable",
    "disable",
    "is_enabled",
    "reset",
]
