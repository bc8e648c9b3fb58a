"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

Emits the schedule as a JSON trace: processors are "processes" with tasks as
complete events; each used link is a process with communication slots (or
bandwidth segments) as events.  Metadata events pin the ordering — processors
sort first (by vertex id), links below them (by link id) — instead of
Perfetto's default pid interleaving.  Load the file in Perfetto or
``chrome://tracing`` to scrub through the schedule interactively.

When the schedule carries an observability capture (``schedule.stats`` from
an :mod:`repro.obs`-enabled run), timestamped decision events — slot
deferrals and task placements — are rendered as instant events on the lane
they refer to, so the *why* of the schedule shows up alongside the Gantt.
"""

from __future__ import annotations

import json

from repro.core.schedule import Schedule

#: Link "processes" start here so they never collide with processor vids.
LINK_PID_BASE = 10_000

#: The critical-path highlight track's process id; its negative sort index
#: pins it above every processor lane.
CRITICAL_PID = 9_999

#: Chrome-trace color names per explain segment kind: binding work in
#: green/blue, waits in the alarm palette, so contention pops visually.
_SEGMENT_CNAME = {
    "compute": "good",
    "transfer": "thread_state_running",
    "link_wait": "terrible",
    "proc_wait": "bad",
    "idle": "grey",
}


def _link_meta(events: list[dict], pid: int, name: str) -> None:
    """Name a link process and sort it below every processor lane."""
    events.append(
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": f"link {name}"}}
    )
    events.append(
        {"name": "process_sort_index", "ph": "M", "pid": pid,
         "args": {"sort_index": pid}}
    )
    events.append(
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "transfer"}}
    )


def schedule_to_trace(
    schedule: Schedule, *, time_unit: float = 1.0, explanation=None
) -> str:
    """Serialize as Trace Event Format JSON.

    ``time_unit`` scales schedule time units into microseconds (trace
    timestamps are integers in us; the default treats one schedule time unit
    as one microsecond).  Zero-length slots are clamped to 1us — for tasks
    *and* link slots — so they don't vanish in Perfetto.

    Pass a :class:`~repro.core.explain.ScheduleExplanation` (from
    :func:`repro.core.explain.explain`) as ``explanation`` to add a
    **critical path** track above the processor lanes: the binding chain's
    segments as color-coded slices (compute green, transfers blue, contention
    waits red), each naming the resource it binds.
    """
    events: list[dict] = []

    def us(t: float) -> int:
        return int(round(t * time_unit))

    def dur(start: float, finish: float) -> int:
        return max(1, us(finish) - us(start))

    for vid in sorted(p.vid for p in schedule.net.processors()):
        name = schedule.net.vertex(vid).name or f"P{vid}"
        events.append(
            {"name": "process_name", "ph": "M", "pid": vid,
             "args": {"name": f"processor {name}"}}
        )
        events.append(
            {"name": "process_sort_index", "ph": "M", "pid": vid,
             "args": {"sort_index": vid}}
        )
        events.append(
            {"name": "thread_name", "ph": "M", "pid": vid, "tid": 0,
             "args": {"name": "exec"}}
        )
    for pl in schedule.placements.values():
        events.append(
            {
                "name": f"task {pl.task}",
                "ph": "X",
                "pid": pl.processor,
                "tid": 0,
                "ts": us(pl.start),
                "dur": dur(pl.start, pl.finish),
                "args": {"task": pl.task},
            }
        )

    # Circuit and packet bookings are both (edge, start, finish) slots.
    slots = schedule.link_state if schedule.link_state is not None else schedule.packet_state
    if slots is not None:
        for lid in sorted(slots.used_links()):
            pid = LINK_PID_BASE + lid
            _link_meta(events, pid, schedule.net.link(lid).name or f"L{lid}")
            for slot in slots.slots(lid):
                events.append(
                    {
                        "name": f"{slot.edge[0]}->{slot.edge[1]}",
                        "ph": "X",
                        "pid": pid,
                        "tid": 0,
                        "ts": us(slot.start),
                        "dur": dur(slot.start, slot.finish),
                        "args": {"edge": list(slot.edge)},
                    }
                )
    elif schedule.bandwidth_state is not None:
        lids = sorted(
            {lid for r in schedule.bandwidth_state.routes().values() for lid in r}
        )
        for lid in lids:
            pid = LINK_PID_BASE + lid
            _link_meta(events, pid, schedule.net.link(lid).name or f"L{lid}")
            # Counter events showing instantaneous used bandwidth.
            profile = schedule.bandwidth_state.profile(lid)
            for t0, t1, used in profile.segments:
                events.append(
                    {"name": "used bandwidth", "ph": "C", "pid": pid,
                     "ts": us(t0), "args": {"fraction": used}}
                )
                events.append(
                    {"name": "used bandwidth", "ph": "C", "pid": pid,
                     "ts": us(t1), "args": {"fraction": 0.0}}
                )

    if explanation is not None:
        events.extend(_critical_path_events(explanation, us, dur))

    if schedule.stats is not None:
        events.extend(_instant_events(schedule, us))

    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, indent=1)


def _critical_path_events(explanation, us, dur) -> list[dict]:
    """The binding chain as a dedicated color-coded track above the lanes."""
    out: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": CRITICAL_PID,
         "args": {"name": "critical path"}},
        {"name": "process_sort_index", "ph": "M", "pid": CRITICAL_PID,
         "args": {"sort_index": -1}},
        {"name": "thread_name", "ph": "M", "pid": CRITICAL_PID, "tid": 0,
         "args": {"name": "binding chain"}},
    ]
    for seg in explanation.segments:
        if seg.task is not None:
            label = f"{seg.kind} task {seg.task}"
        elif seg.edge is not None:
            label = f"{seg.kind} {seg.edge[0]}->{seg.edge[1]}"
        else:
            label = seg.kind
        if seg.resource:
            label += f" @{seg.resource}"
        out.append(
            {
                "name": label,
                "ph": "X",
                "pid": CRITICAL_PID,
                "tid": 0,
                "ts": us(seg.start),
                "dur": dur(seg.start, seg.finish),
                "cname": _SEGMENT_CNAME.get(seg.kind, "grey"),
                "args": {
                    "kind": seg.kind,
                    "resource": seg.resource,
                    "share": (
                        seg.duration / explanation.makespan
                        if explanation.makespan > 0
                        else 0.0
                    ),
                },
            }
        )
    return out


def _instant_events(schedule: Schedule, us) -> list[dict]:
    """Timestamped decision events as Perfetto instants on their lane."""
    out: list[dict] = []
    for ev in schedule.stats.events:
        if ev.t is None:
            continue
        if "lid" in ev.data:
            pid = LINK_PID_BASE + ev.data["lid"]
        elif "proc" in ev.data:
            pid = ev.data["proc"]
        else:
            continue
        out.append(
            {
                "name": ev.kind,
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": 0,
                "ts": us(ev.t),
                "args": dict(ev.data),
            }
        )
    return out
