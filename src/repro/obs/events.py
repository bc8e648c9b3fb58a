"""Structured scheduling events: the decision log of a scheduler run.

Every interesting decision on the scheduling hot path — a route probed, an
edge booked, a slot deferred to open an earlier gap — is emitted as a typed
:class:`Event` on the process-wide :data:`BUS`.  The bus is **disabled by
default** and every instrumentation site guards on a single attribute check,
so the cost of the disabled path is one boolean test.

Event kinds (the taxonomy is closed; see ``docs/observability.md``):

========================  =====================================================
``route_probed``          a route was computed (BFS or contention-aware
                          Dijkstra); ``data`` carries endpoints, policy, hops
``edge_scheduled``        a DAG edge was committed onto its route's links
``slot_deferred``         optimal insertion slipped an existing slot within
                          its causality slack (OIHSA, Lemma 2)
``processor_chosen``      the scheduler fixed a task's processor
``task_placed``           a task was booked on a processor timeline
========================  =====================================================

Sinks decide where events go: :class:`NullSink` drops them (profiling runs
that only want counters), :class:`ListSink` keeps them in memory (tests,
``Schedule.stats``), :class:`JsonlSink` streams them as JSON lines
(``python -m repro schedule --trace-out events.jsonl``).  The JSONL format
round-trips through :func:`read_jsonl`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterator

#: The closed set of event kinds the instrumentation emits.
EVENT_KINDS = frozenset(
    {
        "route_probed",
        "edge_scheduled",
        "slot_deferred",
        "processor_chosen",
        "task_placed",
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduling decision.

    ``t`` is *schedule* time (the simulated clock the decision refers to),
    not wall time; it is ``None`` for decisions with no natural timestamp
    (e.g. a processor choice made before the task is booked).
    """

    kind: str
    t: float | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        doc: dict[str, Any] = {"kind": self.kind}
        if self.t is not None:
            doc["t"] = self.t
        if self.data:
            doc["data"] = self.data
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Event":
        doc = json.loads(line)
        return cls(kind=doc["kind"], t=doc.get("t"), data=doc.get("data", {}))


class NullSink:
    """Drops every event (metrics/profiling still run)."""

    def write(self, event: Event) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    """Accumulates events in memory; backs ``Schedule.stats.events``."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def write(self, event: Event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Streams events as JSON lines to ``path`` (or an open text handle)."""

    def __init__(self, path_or_file: str | IO[str]) -> None:
        if isinstance(path_or_file, str):
            self._fh: IO[str] = open(path_or_file, "w")
            self._owned = True
        else:
            self._fh = path_or_file
            self._owned = False
        self.count = 0
        self._closed = False

    def write(self, event: Event) -> None:
        self._fh.write(event.to_json())
        self._fh.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        if self._owned:
            self._fh.close()


def read_jsonl(path_or_file: str | IO[str], *, strict: bool = True) -> list[Event]:
    """Load events written by :class:`JsonlSink` (inverse of ``to_json``).

    A malformed line raises :class:`~repro.exceptions.ObsError` naming the
    file and 1-based line number (instead of a bare ``json.JSONDecodeError``
    that loses both).  With ``strict=False`` malformed lines are skipped —
    for salvaging the intact prefix of a log truncated by a crash.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file) as fh:
            return _read_jsonl_lines(fh, path_or_file, strict)
    name = getattr(path_or_file, "name", "<stream>")
    return _read_jsonl_lines(path_or_file, str(name), strict)


def _read_jsonl_lines(lines: IO[str], name: str, strict: bool) -> list[Event]:
    from repro.exceptions import ObsError

    events: list[Event] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(Event.from_json(line))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if strict:
                raise ObsError(
                    f"{name}:{lineno}: malformed JSONL event line "
                    f"({exc}): {line.strip()[:120]!r}"
                ) from exc
    return events


class _Quiet:
    """Context manager suppressing event emission (counters still count).

    Used around tentative work that is rolled back (BA's processor probing)
    so the decision log only records *committed* decisions.
    """

    __slots__ = ("_bus",)

    def __init__(self, bus: "EventBus") -> None:
        self._bus = bus

    def __enter__(self) -> "_Quiet":
        self._bus._suspended += 1
        return self

    def __exit__(self, *exc: object) -> None:
        self._bus._suspended -= 1


class EventBus:
    """Process-wide event dispatcher.

    ``enabled`` is the master hot-path guard: instrumentation sites test it
    (via ``OBS.on``) before building event payloads, so a disabled bus costs
    one attribute load per site.
    """

    __slots__ = ("enabled", "sink", "_suspended")

    def __init__(self) -> None:
        self.enabled = False
        self.sink: NullSink | ListSink | JsonlSink = NullSink()
        self._suspended = 0

    def emit(self, kind: str, t: float | None = None, **data: Any) -> None:
        if not self.enabled or self._suspended:
            return
        self.sink.write(Event(kind, t, data))

    def quiet(self) -> _Quiet:
        """Suppress events (not counters) for the duration of a ``with`` block."""
        return _Quiet(self)

    @property
    def quieted(self) -> bool:
        """True inside a :meth:`quiet` block — emissions would be dropped.

        Hot emission sites with non-trivial payloads test this to skip
        building an event dict that :meth:`emit` would discard.
        """
        return self._suspended > 0

    # -- marks: cheap "events since X" for ScheduleStats ----------------------

    def mark(self) -> int:
        """Position marker; pair with :meth:`since` (ListSink only)."""
        sink = self.sink
        return len(sink.events) if isinstance(sink, ListSink) else 0

    def since(self, mark: int) -> list[Event]:
        """Events written after ``mark`` (empty for streaming/null sinks)."""
        sink = self.sink
        if isinstance(sink, ListSink):
            return sink.events[mark:]
        return []

    def iter_events(self) -> Iterator[Event]:
        sink = self.sink
        if isinstance(sink, ListSink):
            yield from sink.events


#: The process-wide bus all instrumentation emits to.
BUS = EventBus()
