"""Phase timers: where does a scheduler's wall time actually go?

``with span("routing"): ...`` accumulates ``perf_counter`` deltas into the
process-wide :data:`PROFILER` under the phase name.  When observability is
disabled ``span()`` returns a shared no-op context manager, so the cost on
the disabled path is one function call and one attribute test.

The canonical phases instrumented across the schedulers:

- ``routing``              — BFS / contention-aware Dijkstra route search,
- ``insertion``            — booking an edge's slots onto its route links,
- ``processor_selection``  — choosing the task's processor (MLS estimate,
  blind EFT, or BA's tentative probing — in tentative mode the routing and
  insertion done *inside* a probe nest under this phase and are counted in
  both, so phase totals are inclusive),
- ``task_placement``       — booking the task on the processor timeline,
- ``mapping.score``        — the mapping searches' calls into their scorer.

Totals are inclusive wall time; :func:`diff_timings` gives per-run deltas
the same way metric snapshots do.
"""

from __future__ import annotations

from time import perf_counter

#: phase name -> {"total": seconds, "count": times entered}
Timings = dict[str, dict[str, float]]


class PhaseProfiler:
    """Accumulates per-phase inclusive wall time."""

    __slots__ = ("enabled", "_totals", "_counts")

    def __init__(self) -> None:
        self.enabled = False
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        self._totals[phase] = self._totals.get(phase, 0.0) + seconds
        self._counts[phase] = self._counts.get(phase, 0) + 1

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()

    def snapshot(self) -> Timings:
        return {
            phase: {"total": total, "count": self._counts[phase]}
            for phase, total in self._totals.items()
        }

    def to_text(self) -> str:
        snap = self.snapshot()
        if not snap:
            return "(no phases recorded)"
        width = max(len(p) for p in snap)
        return "\n".join(
            f"{phase:<{width}}  {rec['total'] * 1e3:9.3f} ms  x{int(rec['count'])}"
            for phase, rec in sorted(snap.items())
        )


def diff_timings(before: Timings, after: Timings) -> Timings:
    """Per-phase ``after - before`` (phases absent from ``before`` are fresh)."""
    out: Timings = {}
    for phase, rec in after.items():
        b = before.get(phase, {"total": 0.0, "count": 0})
        count = rec["count"] - b["count"]
        total = rec["total"] - b["total"]
        if count or total > 0:
            out[phase] = {"total": total, "count": count}
    return out


class _Span:
    __slots__ = ("_phase", "_t0")

    def __init__(self, phase: str) -> None:
        self._phase = phase
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        PROFILER.add(self._phase, perf_counter() - self._t0)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: The process-wide profiler `span` accumulates into.
PROFILER = PhaseProfiler()


def span(phase: str) -> _Span | _NullSpan:
    """Time a phase: ``with span("routing"): route = ...``.

    No-op (shared null context) while profiling is disabled.
    """
    if not PROFILER.enabled:
        return _NULL_SPAN
    return _Span(phase)
