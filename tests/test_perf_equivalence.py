"""Differential suite: the optimized hot paths vs the retained naive reference.

The hot-path overhaul (indexed queues, undo-log transactions, pruned/inlined
routing, fused obs-off booking) claims *bit-identical* behavior.  This module
proves it by driving both implementations — the optimized substrate and the
seed algorithms kept in :mod:`tests.naive_reference` — through identical
inputs and comparing results exactly:

1. ``find_gap_indexed`` vs the linear ``find_gap`` scan on random queues,
2. undo-log vs copy-on-write transactions across random
   begin/insert/replace_suffix/commit/rollback sequences,
3. whole schedulers (ba / oihsa / bbsa / packet-ba, both comm models) on
   Hypothesis-generated workloads: same makespan, per-task placements, link
   slot lists, edge arrivals, and ScheduleStats counters (modulo the
   pruning-introspection counters), with the naive reference monkeypatched in,
4. observing runs the very same calls into the fused searches and the
   optimal-insertion booking, and an unobserved run leaves the metrics
   registry untouched.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.ba as ba_mod
import repro.core.base as base_mod
import repro.core.bbsa as bbsa_mod
import repro.core.oihsa as oihsa_mod
from repro import obs
from repro.core import SCHEDULERS
from repro.core.ba import BAScheduler
from repro.core.base import ContentionScheduler
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.optimal_insertion import schedule_edge_optimal
from repro.linksched.slots import TimeSlot, find_gap, find_gap_indexed
from repro.linksched.state import LinkScheduleState
from repro.network.builders import (
    fully_connected,
    linear_array,
    random_wan,
    switched_cluster,
)
from repro.network.routing import bfs_route
from repro.network.topology import Link, Vertex
from repro.obs import OBS
from repro.procsched.state import ProcessorState
from repro.taskgraph.generators import random_layered_dag
from repro.taskgraph.graph import TaskGraph
from tests.naive_reference import (
    NaiveLinkScheduleState,
    naive_bfs_route,
    naive_dijkstra_fluid,
    naive_dijkstra_indexed,
    naive_eft_select_processor,
    naive_mls_select_processor,
    naive_schedule_edge_optimal,
)

# Differential checks are exact (==), never approximate: the acceptance bar
# is bit-identical behavior, so any drift must fail loudly.

FAST = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SCHED = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

times = st.floats(min_value=0.0, max_value=50.0)
durations = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def slot_queues(draw) -> list[TimeSlot]:
    """Sorted, pairwise-disjoint queues built from (gap, duration) pairs."""
    pairs = draw(st.lists(st.tuples(times, durations), max_size=12))
    t = 0.0
    slots: list[TimeSlot] = []
    for i, (gap, dur) in enumerate(pairs):
        start = t + gap
        slots.append(TimeSlot((i, 1000 + i), start, start + dur))
        t = start + dur
    return slots


class TestFindGapDifferential:
    @FAST
    @given(slots=slot_queues(), duration=durations, est=times, min_finish=times)
    def test_indexed_matches_linear(self, slots, duration, est, min_finish):
        starts = [s.start for s in slots]
        finishes = [s.finish for s in slots]
        assert find_gap_indexed(
            starts, finishes, duration, est, min_finish
        ) == find_gap(slots, duration, est, min_finish)

    @FAST
    @given(slots=slot_queues(), duration=durations, est=times, min_finish=times)
    def test_state_find_gap_matches_linear(self, slots, duration, est, min_finish):
        state = LinkScheduleState()
        if slots:
            state.replace_suffix(7, 0, slots)
        assert state.find_gap(7, duration, est, min_finish) == find_gap(
            slots, duration, est, min_finish
        )


# ---------------------------------------------------------------------------
# Transactions: undo log vs copy-on-write.
# ---------------------------------------------------------------------------

_TXN_NETS = [fully_connected(3, rng=3), switched_cluster(4, rng=5)]
_TXN_PROCS = [sorted(v.vid for v in net.processors()) for net in _TXN_NETS]

booking_ops = st.lists(
    st.tuples(
        st.booleans(),  # optimal insertion (replace_suffix) vs basic (insert)
        st.integers(min_value=0, max_value=10**6),  # src/dst selector
        st.floats(min_value=0.0, max_value=30.0),  # cost
        times,  # ready time
        st.sampled_from(["none", "commit", "rollback"]),
    ),
    min_size=1,
    max_size=12,
)


def _assert_states_equal(real: LinkScheduleState, naive: NaiveLinkScheduleState):
    assert real.routes() == naive.routes()
    assert real.in_transaction == naive.in_transaction
    for lid in set(real._queues) | set(naive._queues):
        assert real.slots(lid) == naive.slots(lid), f"link {lid} queues differ"
        r_slots, r_starts, r_finishes = real.queue_arrays(lid)
        assert r_starts == [s.start for s in r_slots]
        assert r_finishes == [s.finish for s in r_slots]
        for s in r_slots:
            assert real.slot_of(s.edge, lid) == naive.slot_of(s.edge, lid)
    for edge, route in real.routes().items():
        for lid in route:
            assert real.next_link_of(edge, lid) == naive.next_link_of(edge, lid)


class TestTransactionDifferential:
    @FAST
    @given(
        ops=booking_ops,
        net_idx=st.integers(0, len(_TXN_NETS) - 1),
        comm=st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD]),
    )
    def test_undo_log_matches_copy_on_write(self, ops, net_idx, comm):
        net = _TXN_NETS[net_idx]
        procs = _TXN_PROCS[net_idx]
        n = len(procs)
        real = LinkScheduleState()
        naive = NaiveLinkScheduleState()
        for i, (use_optimal, sel, cost, ready, txn) in enumerate(ops):
            src = procs[sel % n]
            dst = procs[(sel // n) % n]
            if dst == src:
                dst = procs[(procs.index(src) + 1) % n]
            route = bfs_route(net, src, dst)
            edge = (i, 1000 + i)
            book = schedule_edge_optimal if use_optimal else schedule_edge_basic
            if txn != "none":
                real.begin()
                naive.begin()
            a_real = book(real, edge, route, cost, ready, comm)
            a_naive = book(naive, edge, route, cost, ready, comm)
            assert a_real == a_naive
            if txn == "commit":
                real.commit()
                naive.commit()
            elif txn == "rollback":
                real.rollback()
                naive.rollback()
            _assert_states_equal(real, naive)


# ---------------------------------------------------------------------------
# Whole schedulers vs the naive reference.
# ---------------------------------------------------------------------------

graphs = st.builds(
    lambda n, seed, density: random_layered_dag(n, rng=seed, density=density),
    n=st.integers(2, 18),
    seed=st.integers(0, 10_000),
    density=st.floats(0.0, 0.5),
)

topologies = st.one_of(
    st.builds(lambda n, s: fully_connected(n, rng=s), st.integers(2, 5), st.integers(0, 99)),
    st.builds(lambda n, s: switched_cluster(n, rng=s), st.integers(2, 6), st.integers(0, 99)),
    st.builds(lambda n, s: linear_array(n, rng=s), st.integers(2, 5), st.integers(0, 99)),
    st.builds(
        lambda n, s: random_wan(n, rng=s, proc_speed=(1, 10), link_speed=(1, 10)),
        st.integers(2, 8),
        st.integers(0, 99),
    ),
)

# (scheduler name, [(module, attr, naive impl)], routing probe counter).
# OIHSA's and BBSA's BFS fallback lives in ``base``; packet-ba routes
# through BA's.
_CASES = [
    (
        "ba",
        [
            (ba_mod, "LinkScheduleState", NaiveLinkScheduleState),
            (ba_mod, "bfs_route", naive_bfs_route),
        ],
        None,
    ),
    (
        "oihsa",
        [
            (oihsa_mod, "LinkScheduleState", NaiveLinkScheduleState),
            (oihsa_mod, "_dijkstra_indexed", naive_dijkstra_indexed),
            (oihsa_mod, "schedule_edge_optimal", naive_schedule_edge_optimal),
            (base_mod, "bfs_route", naive_bfs_route),
        ],
        "insertion.probes",
    ),
    (
        "bbsa",
        [
            (bbsa_mod, "_dijkstra_fluid", naive_dijkstra_fluid),
            (base_mod, "bfs_route", naive_bfs_route),
        ],
        "bandwidth.probes",
    ),
    ("packet-ba", [(ba_mod, "bfs_route", naive_bfs_route)], None),
]

#: what the optimal-insertion booking reports; its oracle reports nothing
_BOOKING_COUNTERS = {
    "insertion.edges_scheduled",
    "optimal.deferrals",
    "optimal.probes",
    "optimal.slots_scanned",
}


def _comm_kwargs(name: str, comm) -> dict:
    return {} if name == "packet-ba" else {"comm": comm}


def _fold(counters: dict, name: str, extra: float) -> None:
    if extra:
        counters[name] = counters.get(name, 0) + extra


def _comparable_counters(stats, probe_counter: str | None, booking: bool) -> dict:
    """Counters as the unpruned reference would count them.

    The topology route table turns repeat BFS calls into table hits; the
    naive reference recomputes every call, so hits fold back into
    ``bfs_routes``.  The reference probes every relaxation, so the
    lower-bound cutoffs fold back into the probe counter; it also relaxes
    into dead ends and searches forced pairs, which it reports apart and
    which the pruned search never does, so those come off its relaxations
    and probes.  With ``booking`` the optimal insertion was swapped for its
    silent oracle.
    """
    counters = dict(stats.metrics.get("counters", {}))
    _fold(counters, "routing.bfs_routes", counters.pop("routing.table_hits", 0))
    cutoffs = counters.pop("routing.probe_cutoffs", 0)
    skipped = counters.pop("routing.dead_end_relaxations", 0) + counters.pop(
        "routing.forced_relaxations", 0
    )
    _fold(counters, "routing.relaxations", -skipped)
    if counters.get("routing.relaxations") == 0:
        del counters["routing.relaxations"]  # every route was forced
    if probe_counter is not None:
        _fold(counters, probe_counter, cutoffs - skipped)
        if counters.get(probe_counter) == 0:
            del counters[probe_counter]
    if booking:
        for name in _BOOKING_COUNTERS:
            counters.pop(name, None)
    return counters


def _link_slot_lists(schedule) -> dict:
    state = getattr(schedule, "link_state", None)
    if state is None:
        state = getattr(schedule, "packet_state", None)
    if state is None:  # bbsa's fluid model has no slot queues
        return {}
    return {lid: list(q) for lid, q in
            ((lid, state.slots(lid)) for lid in state.used_links())}


@pytest.mark.parametrize(
    "name,comm",
    [
        ("ba", CUT_THROUGH),
        ("ba", STORE_AND_FORWARD),
        ("oihsa", CUT_THROUGH),
        ("oihsa", STORE_AND_FORWARD),
        ("bbsa", CUT_THROUGH),
        ("bbsa", STORE_AND_FORWARD),
        ("packet-ba", CUT_THROUGH),
    ],
)
class TestSchedulerDifferential:
    """7 cases x 15 examples = 105 generated instances, each run three ways."""

    @SCHED
    @given(graph=graphs, net=topologies)
    def test_optimized_matches_naive_reference(self, name, comm, graph, net):
        case = next(c for c in _CASES if c[0] == name)
        _, patches, probe_counter = case
        cls = SCHEDULERS[name]
        comm_kw = _comm_kwargs(name, comm)

        # 1. Optimized, obs off.
        obs.disable()
        fast = cls(**comm_kw).schedule(graph, net)

        # 2. Optimized, obs on: the same code, counting.
        obs.enable(obs.NullSink())
        obs.reset()
        try:
            instrumented = cls(**comm_kw).schedule(graph, net)

            # 3. Naive reference, obs on, seed algorithms monkeypatched in.
            saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
            try:
                for module, attr, impl in patches:
                    setattr(module, attr, impl)
                obs.reset()
                reference = cls(**comm_kw).schedule(graph, net)
            finally:
                for module, attr, impl in saved:
                    setattr(module, attr, impl)
        finally:
            obs.disable()

        for other in (instrumented, reference):
            assert fast.makespan == other.makespan
            assert fast.placements == other.placements
            assert fast.edge_arrivals == other.edge_arrivals
            assert _link_slot_lists(fast) == _link_slot_lists(other)
        booking = any(attr == "schedule_edge_optimal" for _, attr, _ in patches)
        assert _comparable_counters(
            instrumented.stats, probe_counter, booking
        ) == _comparable_counters(reference.stats, probe_counter, booking)


# ---------------------------------------------------------------------------
# Processor selection: bounds for predecessor hosts only vs every pair.
# ---------------------------------------------------------------------------

#: small values, so finishes tie often
_small = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def selection_cases(draw):
    """A task with placed predecessors, on processors with queued work."""
    n_procs = draw(st.integers(1, 6))
    vids = sorted(draw(st.sets(st.integers(0, 20), min_size=n_procs, max_size=n_procs)))
    procs = [Vertex(v, "processor", draw(st.sampled_from([0.5, 1.0, 2.0]))) for v in vids]
    pstate = ProcessorState()
    graph = TaskGraph()
    tid = 100
    graph.add_task(tid, draw(st.sampled_from([1.0, 2.0, 4.0])))
    next_task = 200
    for pred in range(draw(st.integers(0, 5))):
        graph.add_task(pred, 1.0)
        graph.add_edge(pred, tid, draw(st.sampled_from([0.0, 1.0, 2.5, 4.0])))
        pstate.place(pred, draw(st.sampled_from(vids)), draw(_small), draw(_small))
    for _ in range(draw(st.integers(0, 4))):
        pstate.place(next_task, draw(st.sampled_from(vids)), draw(_small), draw(_small))
        next_task += 1
    return graph, tid, procs, pstate


class TestProcessorSelectionDifferential:
    """The O(P + preds) choices against the pairwise (finish, vid) scans."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=selection_cases(),
        mls=st.sampled_from([0.5, 1.0, 2.0]),
        exempt=st.booleans(),
    )
    def test_mls_choice_matches_pairwise_scan(self, case, mls, exempt):
        graph, tid, procs, pstate = case
        fast = ContentionScheduler._mls_select_processor(
            graph, tid, procs, pstate, mls, local_comm_exempt=exempt
        )
        naive = naive_mls_select_processor(
            graph, tid, procs, pstate, mls, local_comm_exempt=exempt
        )
        assert fast is naive

    @settings(max_examples=300, deadline=None)
    @given(case=selection_cases())
    def test_blind_eft_choice_matches_pairwise_scan(self, case):
        graph, tid, procs, pstate = case
        fast = BAScheduler()._select_processor(graph, None, tid, procs, pstate)
        assert fast is naive_eft_select_processor(graph, tid, procs, pstate)


# ---------------------------------------------------------------------------
# Obs-off paths must not touch the instruments at all.
# ---------------------------------------------------------------------------

class TestObsOffIsInert:
    def test_disabled_run_mutates_no_metrics_or_events(self, diamond4, net4):
        obs.disable()
        obs.METRICS.reset()
        obs.PROFILER.reset()
        mark = OBS.bus.mark()
        empty_metrics = obs.METRICS.snapshot()
        empty_timings = obs.PROFILER.snapshot()
        for name in ("ba", "oihsa", "bbsa", "packet-ba"):
            result = SCHEDULERS[name]().schedule(diamond4, net4)
            assert result.stats is None
        assert obs.METRICS.snapshot() == empty_metrics
        assert obs.METRICS._counters == {}  # not even zero-valued instruments
        assert obs.PROFILER.snapshot() == empty_timings
        assert OBS.bus.mark() == mark
        assert OBS.bus.since(mark) == []


# ---------------------------------------------------------------------------
# Observing changes no code path.
# ---------------------------------------------------------------------------

#: (module, attribute) of every fused path OIHSA and BBSA call
_FUSED = [
    (oihsa_mod, "_dijkstra_indexed"),
    (oihsa_mod, "schedule_edge_optimal"),
    (bbsa_mod, "_dijkstra_fluid"),
]


def _plain(value):
    """``value`` as comparable plain data: link state becomes its bookings,
    links their ids; the topology and scalars compare as they are."""
    if isinstance(value, LinkScheduleState):
        return {lid: list(value.slots(lid)) for lid in value.used_links()}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Link):
        return value.lid
    if hasattr(value, "segments"):  # a fluid link profile
        return list(value.segments)
    if hasattr(value, "by_edge"):  # a slot queue
        return list(value.slots)
    return value


def _calls(name: str, graph, net, observing: bool) -> list:
    """Every fused-path call of one run, with its arguments and result."""
    log: list = []
    saved = [(module, attr, getattr(module, attr)) for module, attr in _FUSED]

    def spy(attr, real):
        def call(*args):
            before = _plain(args)
            result = real(*args)
            log.append((attr, before, _plain(result)))
            return result

        return call

    for module, attr, real in saved:
        setattr(module, attr, spy(attr, real))
    if observing:
        obs.enable(obs.ListSink())
    try:
        SCHEDULERS[name]().schedule(graph, net)
    finally:
        obs.disable()
        for module, attr, real in saved:
            setattr(module, attr, real)
    return log


@pytest.mark.parametrize("name", ["oihsa", "bbsa"])
def test_observing_makes_the_same_fused_calls(name, fork8):
    net = random_wan(32, rng=42)
    quiet = _calls(name, fork8, net, observing=False)
    assert quiet, "the run never reached a fused path"
    assert _calls(name, fork8, net, observing=True) == quiet


@pytest.mark.parametrize("name", ["oihsa", "bbsa"])
def test_probe_counter_is_relaxations_less_cutoffs(name, fork8):
    # The probe counter counts the link probes actually made: a relaxation
    # the lower bound prunes probes nothing.  (A 32-processor random WAN has
    # switch cycles, so some relaxations are pruned.)
    probe_counter = {"oihsa": "insertion.probes", "bbsa": "bandwidth.probes"}[name]
    obs.enable(obs.NullSink())
    obs.reset()
    try:
        result = SCHEDULERS[name]().schedule(fork8, random_wan(32, rng=42))
        counters = result.stats.metrics.get("counters", {})
    finally:
        obs.disable()
    assert counters["routing.probe_cutoffs"] > 0
    assert counters[probe_counter] == (
        counters["routing.relaxations"] - counters["routing.probe_cutoffs"]
    )


# ---------------------------------------------------------------------------
# Topology adjacency cache.
# ---------------------------------------------------------------------------

class TestAdjacencyCache:
    def test_cache_matches_sorted_scan_and_invalidates(self):
        net = switched_cluster(4, rng=11)
        for v in net.vertices():
            assert net.sorted_out_links(v.vid) == sorted(
                net.out_links(v.vid), key=lambda lv: lv[0].lid
            )
        # Mutation must invalidate: add a link and re-check every vertex.
        procs = [v.vid for v in net.processors()]
        net.connect(procs[0], procs[1], speed=2.0)
        for v in net.vertices():
            assert net.sorted_out_links(v.vid) == sorted(
                net.out_links(v.vid), key=lambda lv: lv[0].lid
            )
