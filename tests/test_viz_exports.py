"""Tests for SVG and Chrome-trace schedule exports."""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.core.ba import BAScheduler
from repro.core.bbsa import BBSAScheduler
from repro.core.classic import ClassicScheduler
from repro.core.packetba import PacketBAScheduler
from repro.viz.svg import schedule_to_svg
from repro.viz.trace import LINK_PID_BASE, schedule_to_trace


@pytest.fixture
def schedules(diamond4, net4, fork8, wan16):
    return {
        "ba": BAScheduler().schedule(diamond4, net4),
        # fork-join on a WAN guarantees cross-processor (bandwidth) traffic
        "bbsa": BBSAScheduler().schedule(fork8, wan16),
        "classic": ClassicScheduler().schedule(diamond4, net4),
        "packet-ba": PacketBAScheduler().schedule(fork8, wan16),
    }


class TestSvg:
    def test_is_well_formed_xml(self, schedules):
        for s in schedules.values():
            ET.fromstring(schedule_to_svg(s))

    def test_contains_all_tasks(self, schedules, diamond4):
        svg = schedule_to_svg(schedules["ba"])
        for tid in diamond4.task_ids():
            assert f"task {tid}:" in svg

    def test_link_lanes_for_slot_schedules(self, schedules):
        # Circuit-switched slots and packet slots both get link lanes.
        for algo in ("ba", "packet-ba"):
            svg = schedule_to_svg(schedules[algo])
            assert "edge 0-&gt;" in svg or "edge 0->" in svg, algo

    def test_bandwidth_lanes(self, schedules):
        svg = schedule_to_svg(schedules["bbsa"])
        assert "% used over" in svg or "used over" in svg

    def test_no_links_flag(self, schedules):
        svg = schedule_to_svg(schedules["ba"], include_links=False)
        assert "edge 0" not in svg

    def test_mentions_makespan(self, schedules):
        s = schedules["ba"]
        assert f"{s.makespan:.1f}" in schedule_to_svg(s)


class TestTrace:
    def test_is_valid_json(self, schedules):
        for s in schedules.values():
            doc = json.loads(schedule_to_trace(s))
            assert "traceEvents" in doc

    def test_task_events_cover_placements(self, schedules):
        s = schedules["ba"]
        doc = json.loads(schedule_to_trace(s))
        task_events = [e for e in doc["traceEvents"] if e.get("ph") == "X" and e["pid"] < 10_000]
        assert len(task_events) == len(s.placements)

    def test_link_events_present(self, schedules):
        for algo in ("ba", "packet-ba"):
            doc = json.loads(schedule_to_trace(schedules[algo]))
            link_events = [e for e in doc["traceEvents"] if e.get("pid", 0) >= 10_000]
            assert [e for e in link_events if e["ph"] == "X"], algo
        # One slice per booked packet.
        packets = schedules["packet-ba"].packet_state
        doc = json.loads(schedule_to_trace(schedules["packet-ba"]))
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X" and e["pid"] >= LINK_PID_BASE]
        assert len(slices) == sum(len(packets.slots(lid)) for lid in packets.used_links())

    def test_bandwidth_counters(self, schedules):
        doc = json.loads(schedule_to_trace(schedules["bbsa"]))
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters

    def test_time_unit_scaling(self, schedules):
        s = schedules["ba"]
        fast = json.loads(schedule_to_trace(s, time_unit=1.0))
        slow = json.loads(schedule_to_trace(s, time_unit=10.0))
        f_ts = max(e.get("ts", 0) for e in fast["traceEvents"])
        s_ts = max(e.get("ts", 0) for e in slow["traceEvents"])
        assert s_ts == pytest.approx(10 * f_ts, rel=0.01)

    def test_durations_positive(self, schedules):
        doc = json.loads(schedule_to_trace(schedules["ba"]))
        for e in doc["traceEvents"]:
            if e.get("ph") == "X":
                assert e["dur"] >= 1


class TestTraceMetadata:
    """Links must sort below processors instead of interleaving by pid."""

    def test_sort_index_for_every_process(self, schedules):
        doc = json.loads(schedule_to_trace(schedules["ba"]))
        named = {
            e["pid"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        sort_index = {
            e["pid"]: e["args"]["sort_index"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_sort_index"
        }
        assert set(sort_index) == named
        proc_indices = [v for pid, v in sort_index.items() if pid < LINK_PID_BASE]
        link_indices = [v for pid, v in sort_index.items() if pid >= LINK_PID_BASE]
        assert link_indices and proc_indices
        assert min(link_indices) > max(proc_indices)

    def test_bandwidth_links_also_sorted(self, schedules):
        doc = json.loads(schedule_to_trace(schedules["bbsa"]))
        link_sorts = [
            e
            for e in doc["traceEvents"]
            if e.get("ph") == "M"
            and e["name"] == "process_sort_index"
            and e["pid"] >= LINK_PID_BASE
        ]
        assert link_sorts

    def test_thread_names(self, schedules):
        doc = json.loads(schedule_to_trace(schedules["ba"]))
        names = {
            (e["pid"] >= LINK_PID_BASE, e["args"]["name"])
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert (False, "exec") in names
        assert (True, "transfer") in names


class TestZeroLengthSlots:
    """Regression: sub-microsecond slots must not vanish in Perfetto."""

    @pytest.fixture
    def tiny_schedule(self, diamond4, net4):
        from repro.core.schedule import Schedule
        from repro.linksched.slots import TimeSlot
        from repro.linksched.state import LinkScheduleState
        from repro.procsched.state import TaskPlacement

        proc = net4.processors()[0].vid
        lid = next(net4.links()).lid
        state = LinkScheduleState()
        state.record_route((0, 1), (lid,))
        # 0.2 time units: rounds to the same microsecond at both ends.
        state.insert(lid, 0, TimeSlot((0, 1), 1.0, 1.2))
        return Schedule(
            algorithm="test",
            graph=diamond4,
            net=net4,
            placements={0: TaskPlacement(0, proc, 1.0, 1.2)},
            link_state=state,
        )

    def test_task_and_link_slots_clamped(self, tiny_schedule):
        doc = json.loads(schedule_to_trace(tiny_schedule))
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        task_events = [e for e in xs if e["pid"] < LINK_PID_BASE]
        link_events = [e for e in xs if e["pid"] >= LINK_PID_BASE]
        assert task_events and link_events
        for e in xs:
            assert e["dur"] >= 1


class TestTraceInstants:
    def test_decision_events_rendered_when_instrumented(self, fork8, wan16):
        from repro import obs
        from repro.core.oihsa import OIHSAScheduler
        from repro.taskgraph.ccr import scale_to_ccr

        graph = scale_to_ccr(fork8, 8.0)
        obs.enable()
        try:
            schedule = OIHSAScheduler().schedule(graph, wan16)
        finally:
            obs.disable()
            obs.reset()
        doc = json.loads(schedule_to_trace(schedule))
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert instants
        assert {e["name"] for e in instants} <= {
            "slot_deferred",
            "task_placed",
            "route_probed",
        }
        for e in instants:
            assert e["s"] == "t"
            assert isinstance(e["ts"], int)
