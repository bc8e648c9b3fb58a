"""Tests for the observability event bus: taxonomy, sinks, JSONL round-trip,
disabled-by-default behavior, and BA-vs-OIHSA decision divergence."""

import pytest

from repro import obs
from repro.core import SCHEDULERS
from repro.core.annealing import AnnealingScheduler
from repro.core.ba import BAScheduler
from repro.core.genetic import GeneticScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.network.builders import random_wan, switched_cluster
from repro.obs import EVENT_KINDS, Event, JsonlSink, ListSink, read_jsonl
from repro.taskgraph.ccr import scale_to_ccr
from repro.taskgraph.kernels import fork_join


@pytest.fixture(autouse=True)
def clean_obs():
    """Leave the process-wide instruments exactly as found: off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def contended():
    """Fork-join whose 16 results all cross one switch: heavy link contention."""
    return scale_to_ccr(fork_join(16, rng=1), 8.0), switched_cluster(4)


class TestDisabledByDefault:
    def test_off_by_default(self):
        assert not obs.is_enabled()

    def test_disabled_run_records_nothing(self, contended):
        graph, net = contended
        schedule = OIHSAScheduler().schedule(graph, net)
        assert schedule.stats is None
        assert obs.METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert obs.PROFILER.snapshot() == {}
        assert list(obs.BUS.iter_events()) == []

    def test_emit_while_disabled_is_dropped(self):
        sink = ListSink()
        obs.BUS.sink = sink
        obs.BUS.emit("task_placed", t=1.0, task=0)
        assert sink.events == []


class TestEnabledRun:
    def test_stats_attached_with_decision_log(self, contended):
        graph, net = contended
        obs.enable()
        schedule = OIHSAScheduler().schedule(graph, net)
        obs.disable()
        stats = schedule.stats
        assert stats is not None
        assert {e.kind for e in stats.events} <= EVENT_KINDS
        assert len(stats.events_of("task_placed")) == graph.num_tasks
        assert stats.events_of("edge_scheduled")
        assert stats.counter("procsched.tasks_placed") == graph.num_tasks

    def test_quiet_suppresses_tentative_probe_events(self, contended):
        graph, net = contended
        obs.enable()
        schedule = BAScheduler(processor_choice="tentative").schedule(graph, net)
        obs.disable()
        stats = schedule.stats
        # Probing books and rolls back edges on every candidate processor;
        # only the committed bookings may appear in the decision log.
        committed = stats.counter("insertion.edges_scheduled")
        probed = stats.counter("scheduler.processors_probed")
        assert probed >= len(net.processors()) > 0
        assert len(stats.events_of("edge_scheduled")) < committed
        assert len(stats.events_of("task_placed")) == graph.num_tasks

    def test_consecutive_runs_diff_cleanly(self, contended):
        graph, net = contended
        obs.enable()
        first = OIHSAScheduler().schedule(graph, net)
        second = OIHSAScheduler().schedule(graph, net)
        obs.disable()
        # Deterministic scheduler, identical input: identical per-run deltas
        # even though the process-wide counters kept accumulating.
        assert first.stats.metrics["counters"] == second.stats.metrics["counters"]
        assert len(first.stats.events) == len(second.stats.events)


class TestQuietReentrancy:
    def test_nested_quiet_blocks_suppress_until_the_outermost_exit(self):
        obs.enable(ListSink())
        bus = obs.BUS
        with bus.quiet():
            bus.emit("task_placed", task=0)
            with bus.quiet():
                bus.emit("task_placed", task=1)
            # inner exit must NOT resume emission — the outer block still holds
            assert bus.quieted
            bus.emit("task_placed", task=2)
        assert not bus.quieted
        bus.emit("task_placed", task=3)
        events = list(bus.iter_events())
        assert [e.data["task"] for e in events] == [3]

    def test_quiet_survives_exceptions(self):
        obs.enable(ListSink())
        bus = obs.BUS
        with pytest.raises(ValueError):
            with bus.quiet():
                raise ValueError("probe blew up")
        assert not bus.quieted
        bus.emit("task_placed", task=7)
        assert len(list(bus.iter_events())) == 1

    def test_quiet_block_is_reusable(self):
        # A probe loop re-enters the same bus's quiet() many times; the
        # suspension depth must return to zero every iteration.
        obs.enable(ListSink())
        bus = obs.BUS
        for _ in range(5):
            with bus.quiet():
                bus.emit("task_placed", task=0)
            assert not bus.quieted
        assert list(bus.iter_events()) == []


class TestBackToBackStats:
    def test_stats_diff_isolates_runs_without_reset(self):
        """Snapshot-diff stats are per-run even as global counters grow.

        Each run gets a *fresh* workload (route tables and probe caches live
        on the topology), so the second run's capture must equal a clean
        single-run capture — no leakage from the BA run before it, and no
        reset() in between.
        """

        def workload():
            return scale_to_ccr(fork_join(16, rng=1), 8.0), switched_cluster(4)

        obs.enable(ListSink())
        g, net = workload()
        alone = OIHSAScheduler().schedule(g, net)
        obs.disable()
        obs.reset()

        obs.enable(ListSink())
        g, net = workload()
        BAScheduler().schedule(g, net)
        g, net = workload()
        stacked = OIHSAScheduler().schedule(g, net)
        obs.disable()

        assert stacked.stats.metrics["counters"] == alone.stats.metrics["counters"]
        assert len(stacked.stats.events) == len(alone.stats.events)
        assert [e.kind for e in stacked.stats.events] == [
            e.kind for e in alone.stats.events
        ]


#: every registered scheduler, the mapping searches kept small
STATS_SCHEDULERS = {
    **SCHEDULERS,
    "annealing": lambda: AnnealingScheduler(iterations=20),
    "genetic": lambda: GeneticScheduler(population=4, generations=2),
}


class TestStatsCapture:
    @pytest.mark.parametrize("name", sorted(STATS_SCHEDULERS))
    def test_stats_attached_when_observing(self, name, contended):
        graph, net = contended
        obs.enable()
        schedule = STATS_SCHEDULERS[name]().schedule(graph, net)
        obs.disable()
        stats = schedule.stats
        assert stats is not None
        assert stats.counter("procsched.tasks_placed") > 0
        if name in ("annealing", "genetic"):
            assert stats.counter("mapping.evaluations") > 0

    @pytest.mark.parametrize("name", sorted(STATS_SCHEDULERS))
    def test_no_snapshot_when_off(self, name, contended, monkeypatch):
        def refuse(self):
            raise AssertionError("snapshot taken with observability off")

        monkeypatch.setattr(type(obs.METRICS), "snapshot", refuse)
        monkeypatch.setattr(type(obs.PROFILER), "snapshot", refuse)
        graph, net = contended
        assert STATS_SCHEDULERS[name]().schedule(graph, net).stats is None


class TestBAvsOIHSA:
    def test_decision_counts_diverge_under_contention(self, contended):
        graph, net = contended
        # Processors on four switches of two to four: some routes have a
        # choice, same-switch ones are forced.
        wan = random_wan(16, rng=1, procs_per_switch=(2, 4))
        obs.enable()
        ba = BAScheduler().schedule(graph, net)
        oihsa = OIHSAScheduler().schedule(graph, net)
        ba_wan = BAScheduler().schedule(graph, wan)
        oihsa_wan = OIHSAScheduler().schedule(graph, wan)
        obs.disable()
        # BA never defers booked slots; OIHSA's optimal insertion does.
        assert ba.stats.counter("optimal.deferrals") == 0
        assert not ba.stats.events_of("slot_deferred")
        assert oihsa.stats.counter("optimal.deferrals") > 0
        assert oihsa.stats.events_of("slot_deferred")
        # BFS-routing BA does no Dijkstra relaxation work; OIHSA does where
        # the topology offers a choice, and none on one switch, where every
        # route is forced.
        for result in (ba, ba_wan, oihsa):
            assert result.stats.counter("routing.relaxations") == 0
        assert oihsa_wan.stats.counter("routing.relaxations") > 0
        # Both log their routes, through different policies.
        ba_routes = ba.stats.events_of("route_probed")
        oi_routes = oihsa.stats.events_of("route_probed")
        assert {e.data["policy"] for e in ba_routes} == {"bfs"}
        assert {e.data["policy"] for e in oi_routes} == {"forced"}
        assert len(ba_routes) != len(oi_routes)
        assert oihsa.stats.counter("routing.forced_routes") == len(oi_routes)
        wan_routes = oihsa_wan.stats.events_of("route_probed")
        assert {e.data["policy"] for e in wan_routes} == {"dijkstra", "forced"}
        assert all(
            ("arrival" in e.data) == (e.data["policy"] == "dijkstra")
            for e in wan_routes
        )
        assert oihsa_wan.stats.counter("routing.dijkstra_routes") + oihsa_wan.stats.counter(
            "routing.forced_routes"
        ) == len(wan_routes)
        assert {e.data["policy"] for e in ba_wan.stats.events_of("route_probed")} == {"bfs"}


class TestJsonl:
    def test_event_round_trip(self):
        ev = Event("slot_deferred", t=3.25, data={"lid": 4, "edge": [1, 7]})
        assert Event.from_json(ev.to_json()) == ev

    def test_no_timestamp_round_trip(self):
        ev = Event("processor_chosen", data={"task": 3, "proc": 0})
        assert Event.from_json(ev.to_json()) == ev

    def test_sink_file_round_trip(self, tmp_path, contended):
        graph, net = contended
        path = str(tmp_path / "events.jsonl")
        obs.enable(JsonlSink(path))
        OIHSAScheduler().schedule(graph, net)
        obs.disable()

        obs.enable(ListSink())
        OIHSAScheduler().schedule(graph, net)
        recorded = list(obs.BUS.iter_events())
        obs.disable()

        loaded = read_jsonl(path)
        assert loaded == recorded
        assert {e.kind for e in loaded} <= EVENT_KINDS

    def test_jsonl_stats_has_no_events(self, tmp_path, contended):
        graph, net = contended
        obs.enable(JsonlSink(str(tmp_path / "events.jsonl")))
        schedule = OIHSAScheduler().schedule(graph, net)
        obs.disable()
        # Streaming sink: the decision log lives on disk, not in memory.
        assert schedule.stats.events == []
        assert schedule.stats.counter("insertion.edges_scheduled") > 0
