"""Dependency-free SVG Gantt rendering of schedules.

Produces a standalone ``.svg`` document with one lane per processor (and
optionally per used link), task rectangles labelled and colour-coded by
task id, communication slots drawn in the link lanes.  Useful when the
ASCII charts are too coarse.
"""

from __future__ import annotations

from repro.core.schedule import Schedule

_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]

_LANE_H = 28
_LANE_GAP = 6
_LABEL_W = 90
_CHART_W = 900


def _color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def _rect(x, y, w, h, fill, title) -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(w, 1.0):.1f}" height="{h:.1f}" '
        f'fill="{fill}" stroke="#333" stroke-width="0.5"><title>{title}</title></rect>'
    )


def _text(x, y, s, size=11, anchor="start") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>'
    )


def schedule_to_svg(schedule: Schedule, *, include_links: bool = True) -> str:
    """Render the schedule as a standalone SVG document string."""
    makespan = max(schedule.makespan, 1e-9)
    scale = _CHART_W / makespan
    procs = sorted(p.vid for p in schedule.net.processors())
    # Circuit and packet bookings are both (edge, start, finish) slots.
    slots = schedule.link_state if schedule.link_state is not None else schedule.packet_state
    link_ids: list[int] = []
    if include_links and slots is not None:
        link_ids = sorted(slots.used_links())
    elif include_links and schedule.bandwidth_state is not None:
        link_ids = sorted(
            {lid for r in schedule.bandwidth_state.routes().values() for lid in r}
        )

    lanes = len(procs) + len(link_ids)
    height = 40 + lanes * (_LANE_H + _LANE_GAP) + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_LABEL_W + _CHART_W + 20}" '
        f'height="{height}">',
        _text(10, 20, f"{schedule.algorithm}: makespan {schedule.makespan:.1f}", size=14),
    ]

    y = 40
    for vid in procs:
        name = schedule.net.vertex(vid).name or f"P{vid}"
        parts.append(_text(10, y + _LANE_H / 2 + 4, name))
        parts.append(
            f'<line x1="{_LABEL_W}" y1="{y + _LANE_H}" x2="{_LABEL_W + _CHART_W}" '
            f'y2="{y + _LANE_H}" stroke="#ddd"/>'
        )
        for pl in schedule.placements.values():
            if pl.processor != vid:
                continue
            x = _LABEL_W + pl.start * scale
            w = (pl.finish - pl.start) * scale
            parts.append(
                _rect(x, y, w, _LANE_H, _color(pl.task),
                      f"task {pl.task}: [{pl.start:.1f}, {pl.finish:.1f})")
            )
            if w > 18:
                parts.append(_text(x + 3, y + _LANE_H / 2 + 4, f"t{pl.task}", size=10))
        y += _LANE_H + _LANE_GAP

    for lid in link_ids:
        name = schedule.net.link(lid).name or f"L{lid}"
        parts.append(_text(10, y + _LANE_H / 2 + 4, name))
        if slots is not None:
            for slot in slots.slots(lid):
                x = _LABEL_W + slot.start * scale
                w = slot.duration * scale
                parts.append(
                    _rect(x, y + 6, w, _LANE_H - 12, _color(slot.edge[0]),
                          f"edge {slot.edge[0]}->{slot.edge[1]}: "
                          f"[{slot.start:.1f}, {slot.finish:.1f})")
                )
        elif schedule.bandwidth_state is not None:
            for t0, t1, used in schedule.bandwidth_state.profile(lid).segments:
                x = _LABEL_W + t0 * scale
                w = (t1 - t0) * scale
                h = (_LANE_H - 12) * min(1.0, used)
                parts.append(
                    _rect(x, y + 6 + (_LANE_H - 12 - h), w, h, "#76b7b2",
                          f"{used:.0%} used over [{t0:.1f}, {t1:.1f})")
                )
        y += _LANE_H + _LANE_GAP

    # Time axis.
    parts.append(
        f'<line x1="{_LABEL_W}" y1="{y}" x2="{_LABEL_W + _CHART_W}" y2="{y}" '
        f'stroke="#333"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _LABEL_W + _CHART_W * frac
        parts.append(f'<line x1="{x}" y1="{y}" x2="{x}" y2="{y + 5}" stroke="#333"/>')
        parts.append(_text(x, y + 18, f"{makespan * frac:.0f}", size=10, anchor="middle"))
    parts.append("</svg>")
    return "\n".join(parts)
