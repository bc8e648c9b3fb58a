"""Differential suite: batched array-native scoring vs full re-simulation.

:class:`repro.core.batch.BatchMappingEvaluator`, the mapping searches' only
scorer, claims **bit-identical** results to
:func:`repro.core.mapping.simulate_mapping` (the oracle) while scoring
candidates on flat column arrays and whole batches through one
shared-prefix checkpoint.  This module proves the claim with exact (``==``,
never approximate) comparisons on Hypothesis-generated inputs:

1. random candidate *streams* (walks of single-task moves, full remaps, and
   repeats) scored through one live evaluator (divergence rewind) vs a
   fresh full simulation per candidate, both comm models;
2. :meth:`BatchMappingEvaluator.evaluate_batch` vs per-candidate naive
   scores — results in caller order regardless of the internal prefix sort;
3. the flat columns themselves: after a stream, the link columns'
   ``(starts, finishes)`` per link and the processor finish column equal the
   ``simulate_mapping`` schedule's booking queues slot by slot;
4. the worst case — consecutive candidates diverging at order position 0 —
   and a stream that drives each rewind branch (a late move unwinds, an
   early move rebuilds the prefix and retries a first-hit route pair
   inside it, a full remap rewinds to mark 0), with the columns compared
   after every candidate and ``mapping.prefix_tasks_rebuilt`` telling a
   rebuild from an unwind;
5. the search schedulers: ``AnnealingScheduler`` / ``GeneticScheduler``
   produce the same schedule, slot by slot, as with
   :class:`tests.naive_reference.FullResimulationEvaluator` patched in for
   the scorer (same RNG draws, same trajectory);
6. validation parity on broken mappings and malformed dense genomes, and
   the batch / identical-skip counters.

The differential classes are parametrized over ``kernel`` — the pure-Python
reference and, when the AOT extension is built (skipped otherwise), the
compiled hot loop — so the same Hypothesis inputs that prove the reference
against the naive simulator also prove the C translation bit-identical to
the reference.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.core.annealing import AnnealingScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.genetic import GeneticScheduler
from repro.core.mapping import simulate_mapping
from repro.core.kernelreg import compiled_available
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD
from repro.network.builders import (
    fully_connected,
    linear_array,
    random_wan,
    switched_cluster,
)
from repro.obs import OBS
from repro.taskgraph.generators import random_layered_dag
from repro.taskgraph.priorities import priority_list
from tests.naive_reference import FullResimulationEvaluator

DIFF = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
WORST = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SCHED = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

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

comm_models = st.sampled_from([CUT_THROUGH, STORE_AND_FORWARD])

#: kernel axis of the differential classes: always the pure-Python
#: reference; the AOT-built kernel too when importable (skip, not xfail —
#: toolchain-free machines are a supported configuration).
KERNELS = [
    pytest.param("python", id="pykernel"),
    pytest.param(
        "compiled",
        id="ckernel",
        marks=pytest.mark.skipif(
            not compiled_available(),
            reason="repro.core._kernel_c extension not built",
        ),
    ),
]

#: a candidate stream: the initial assignment plus a walk of edits
#: (single-task moves, full remaps, repeats).
walks = st.lists(
    st.tuples(
        st.booleans(),  # full remap instead of a single move
        st.integers(0, 10**6),  # order-position selector
        st.integers(0, 10**6),  # processor selector
    ),
    min_size=1,
    max_size=6,
)


def _mappings_for(graph, net, init_sel, walk):
    """Deterministic candidate stream from Hypothesis-drawn selectors."""
    order = priority_list(graph)
    procs = sorted(p.vid for p in net.processors())
    mapping = {tid: procs[(init_sel + i) % len(procs)] for i, tid in enumerate(order)}
    stream = [dict(mapping)]
    for remap, pos_sel, proc_sel in walk:
        if remap:
            mapping = {
                tid: procs[(pos_sel + proc_sel * i) % len(procs)]
                for i, tid in enumerate(order)
            }
        else:
            mapping = dict(mapping)
            mapping[order[pos_sel % len(order)]] = procs[proc_sel % len(procs)]
        stream.append(dict(mapping))
    return stream


def _shifted(procs, vid):
    """The processor after ``vid`` in ``procs``, cyclically."""
    return procs[(procs.index(vid) + 1) % len(procs)]


def _rewind_stream(graph, net, sel):
    """Candidates that drive each rewind branch of the scoring kernel.

    In order: a first full simulation on two processors; a late single move
    (unwind); an early move to a third processor, whose route pairs are
    first hit inside the rebuilt evaluation (rebuild, then retry); a full
    remap (rewind to mark 0); and a late and an early move after it.
    """
    order = priority_list(graph)
    n = len(order)
    procs = sorted(p.vid for p in net.processors())
    two = [procs[sel % len(procs)], procs[(sel + 1) % len(procs)]]
    base = {tid: two[i % 2] for i, tid in enumerate(order)}
    late = dict(base)
    late[order[-1]] = two[n % 2]
    early_pos = n // 8
    early = dict(late)
    early[order[early_pos]] = (
        procs[(sel + 2) % len(procs)] if len(procs) > 2 else two[(early_pos + 1) % 2]
    )
    remap = {tid: _shifted(procs, early[tid]) for tid in order}
    remap_late = dict(remap)
    remap_late[order[-1]] = _shifted(procs, remap[order[-1]])
    remap_early = dict(remap_late)
    remap_early[order[early_pos]] = _shifted(procs, remap_late[order[early_pos]])
    return [base, late, early, remap, remap_late, remap_early]


def _assert_scored_exactly(evaluator, graph, net, comm, mapping, seen):
    """Score ``mapping``; its score and, when first seen, the live columns
    equal a fresh ``simulate_mapping``'s (a repeat is served from the score
    cache and leaves the columns on the last simulated candidate)."""
    ref = simulate_mapping(graph, net, mapping, comm=comm)
    assert evaluator.evaluate(mapping) == ref.makespan
    key = tuple(sorted(mapping.items()))
    if key not in seen:
        seen.add(key)
        _assert_columns_match_schedule(evaluator, net, ref)


def _assert_schedules_equal(a, b):
    assert a.makespan == b.makespan
    assert a.placements == b.placements
    assert a.edge_arrivals == b.edge_arrivals
    assert a.link_state.routes() == b.link_state.routes()
    lids = set(a.link_state.used_links()) | set(b.link_state.used_links())
    for lid in lids:
        assert a.link_state.slots(lid) == b.link_state.slots(lid)


def _assert_columns_match_schedule(evaluator, net, ref):
    """The evaluator's flat columns == the reference schedule, slot by slot."""
    array_state = evaluator.link_state
    lids = set(array_state.booked_links()) | set(ref.link_state.used_links())
    for lid in lids:
        starts, finishes = array_state.columns(lid)
        _, ref_starts, ref_finishes = ref.link_state.queue_arrays(lid)
        assert starts == ref_starts
        assert finishes == ref_finishes
    proc_vids = [p.vid for p in net.processors()]
    expected = [0.0] * len(proc_vids)
    for pl in ref.placements.values():
        i = proc_vids.index(pl.processor)
        if pl.finish > expected[i]:
            expected[i] = pl.finish
    assert evaluator.proc_state.finish == expected


@pytest.mark.parametrize("kernel", KERNELS)
class TestEvaluateDifferential:
    @DIFF
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_candidate_stream_matches_naive(
        self, kernel, graph, net, comm, init_sel, walk
    ):
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        for mapping in _mappings_for(graph, net, init_sel, walk):
            expected = simulate_mapping(graph, net, mapping, comm=comm).makespan
            assert evaluator.evaluate(mapping) == expected

    @WORST
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_batch_matches_sequential_naive(
        self, kernel, graph, net, comm, init_sel, walk
    ):
        stream = _mappings_for(graph, net, init_sel, walk)
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        scores = evaluator.evaluate_batch(stream)
        expected = [
            simulate_mapping(graph, net, m, comm=comm).makespan for m in stream
        ]
        assert scores == expected  # caller order, not the internal prefix sort

    @WORST
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_columns_match_object_slots(self, kernel, graph, net, comm, init_sel, walk):
        """After a stream, the flat columns equal the object queues slot by slot."""
        stream = _mappings_for(graph, net, init_sel, walk)
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        for mapping in stream:
            evaluator.evaluate(mapping)
        # The columns hold the state of the last *simulated* candidate; a
        # repeat of an earlier mapping is served from the score cache without
        # touching them, so the reference is the stream's last first-seen one.
        seen: set[tuple[tuple[int, int], ...]] = set()
        simulated = stream[0]
        for mapping in stream:
            key = tuple(sorted(mapping.items()))
            if key not in seen:
                seen.add(key)
                simulated = mapping
        _assert_columns_match_schedule(
            evaluator, net, simulate_mapping(graph, net, simulated, comm=comm)
        )

    @WORST
    @given(graph=graphs, net=topologies, comm=comm_models, seed=st.integers(0, 10**6))
    def test_divergence_at_position_zero(self, kernel, graph, net, comm, seed):
        """Worst case: every candidate invalidates the whole prefix."""
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        base = {tid: procs[(seed + i) % len(procs)] for i, tid in enumerate(order)}
        moved = dict(base)
        moved[order[0]] = procs[(procs.index(base[order[0]]) + 1) % len(procs)]
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        for mapping in (base, moved, base, moved):
            expected = simulate_mapping(graph, net, mapping, comm=comm).makespan
            assert evaluator.evaluate(mapping) == expected

    @WORST
    @given(graph=graphs, net=topologies, comm=comm_models, sel=st.integers(0, 10**6))
    def test_rewind_stream_matches_columns(self, kernel, graph, net, comm, sel):
        """Unwinds, prefix rebuilds, mark-0 rewinds and retries stay exact."""
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        seen: set[tuple[tuple[int, int], ...]] = set()
        for mapping in _rewind_stream(graph, net, sel):
            _assert_scored_exactly(evaluator, graph, net, comm, mapping, seen)

    @pytest.mark.parametrize(
        "comm", [CUT_THROUGH, STORE_AND_FORWARD], ids=["cut-through", "store-forward"]
    )
    def test_rewind_branches_run(self, kernel, comm):
        """Each step of the rewind stream takes the branch it is built for.

        ``mapping.prefix_tasks_rebuilt`` tells a rebuild (shared positions
        re-simulated) from an unwind (none).  Only the Python kernel
        rebuilds; the C kernel always unwinds to the divergence.
        """
        graph = random_layered_dag(48, rng=3, density=0.4)
        net = random_wan(6, rng=3, proc_speed=(1, 10), link_speed=(1, 10))
        n = graph.num_tasks
        early_pos = n // 8
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        resolved: list[int] = []
        resolve = evaluator._resolve_plan

        def counting_resolve(pair):
            resolved.append(pair)
            resolve(pair)

        evaluator._resolve_plan = counting_resolve
        counter = OBS.metrics.counter
        seen: set[tuple[tuple[int, int], ...]] = set()
        steps = []
        obs.enable()
        obs.reset()
        try:
            for mapping in _rewind_stream(graph, net, 0):
                before = (
                    counter("mapping.shared_prefix_tasks").value,
                    counter("mapping.prefix_tasks_rebuilt").value,
                    len(resolved),
                )
                _assert_scored_exactly(evaluator, graph, net, comm, mapping, seen)
                steps.append(
                    (
                        counter("mapping.shared_prefix_tasks").value - before[0],
                        counter("mapping.prefix_tasks_rebuilt").value - before[1],
                        len(resolved) - before[2],
                    )
                )
        finally:
            obs.disable()
        rebuilds = early_pos if kernel == "python" else 0
        first, late, early, remap, remap_late, remap_early = steps
        assert first[:2] == (0, 0) and first[2] > 0
        assert late == (n - 1, 0, 0)  # unwind
        assert early[:2] == (early_pos, rebuilds) and early[2] > 0  # retry
        assert remap[:2] == (0, 0)  # rewind to mark 0
        assert remap_late[:2] == (n - 1, 0)
        assert remap_early[:2] == (early_pos, rebuilds)

    @WORST
    @given(
        graph=graphs,
        net=topologies,
        comm=comm_models,
        init_sel=st.integers(0, 10**6),
        walk=walks,
    )
    def test_materialized_schedule_matches_slot_by_slot(
        self, kernel, graph, net, comm, init_sel, walk
    ):
        stream = _mappings_for(graph, net, init_sel, walk)
        evaluator = BatchMappingEvaluator(graph, net, comm=comm, kernel=kernel)
        evaluator.evaluate_batch(stream)
        final = stream[len(walk) // 2]
        _assert_schedules_equal(
            evaluator.schedule(final), simulate_mapping(graph, net, final, comm=comm)
        )


def _full_resimulation_schedule(scheduler_cls, graph, net, **kwargs):
    """``scheduler_cls``'s result with every candidate fully re-simulated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            f"{scheduler_cls.__module__}.BatchMappingEvaluator",
            FullResimulationEvaluator,
        )
        return scheduler_cls(**kwargs).schedule(graph, net)


class TestSchedulerBackendParity:
    """Each kernel's search matches full re-simulation, slot by slot."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @SCHED
    @given(graph=graphs, net=topologies, seed=st.integers(0, 500))
    def test_annealing_matches_full_resimulation(self, kernel, graph, net, seed):
        kwargs = dict(iterations=40, rng=seed)
        got = AnnealingScheduler(kernel=kernel, **kwargs).schedule(graph, net)
        ref = _full_resimulation_schedule(AnnealingScheduler, graph, net, **kwargs)
        _assert_schedules_equal(got, ref)

    @pytest.mark.parametrize("kernel", KERNELS)
    @SCHED
    @given(graph=graphs, net=topologies, seed=st.integers(0, 500))
    def test_genetic_matches_full_resimulation(self, kernel, graph, net, seed):
        kwargs = dict(population=6, generations=3, rng=seed)
        got = GeneticScheduler(kernel=kernel, **kwargs).schedule(graph, net)
        ref = _full_resimulation_schedule(GeneticScheduler, graph, net, **kwargs)
        _assert_schedules_equal(got, ref)


@pytest.mark.parametrize("kernel", KERNELS)
class TestMalformedDenseGenomes:
    """``evaluate_dense`` rejects a malformed genome before the kernel runs."""

    @pytest.mark.parametrize(
        "shape",
        [
            "index-equals-processor-count",
            "negative-index",
            "negative-index-tuple-keys",
            "too-long",
            "too-short",
        ],
    )
    def test_rejected_and_state_kept(self, kernel, shape):
        # Above 256 processors the score cache keys genomes by tuple, which
        # accepts any integer; at or below it they pack into bytes.
        n_procs = 300 if shape == "negative-index-tuple-keys" else 8
        graph = random_layered_dag(12, rng=5, density=0.4)
        net = switched_cluster(n_procs, rng=5)
        procs = [p.vid for p in net.processors()]
        mapping = {tid: procs[i % 3] for i, tid in enumerate(priority_list(graph))}
        evaluator = BatchMappingEvaluator(graph, net, kernel=kernel)
        good = evaluator.dense(mapping)
        bad = {
            "index-equals-processor-count": good[:-1] + [n_procs],
            "negative-index": good[:-1] + [-1],
            "negative-index-tuple-keys": good[:-1] + [-1],
            "too-long": good + [0],
            "too-short": good[:-1],
        }[shape]
        assert evaluator.evaluate_dense(good) == simulate_mapping(
            graph, net, mapping
        ).makespan
        with pytest.raises(SchedulingError, match="dense genome"):
            evaluator.evaluate_dense(bad)
        # Nothing was booked: the live columns still hold ``mapping``.
        _assert_columns_match_schedule(
            evaluator, net, simulate_mapping(graph, net, mapping)
        )


class TestValidationAndCounters:
    def _workload(self):
        graph = random_layered_dag(10, rng=7, density=0.4)
        net = fully_connected(3, rng=7)
        return graph, net

    def test_missing_task_raises(self):
        graph, net = self._workload()
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        mapping = {tid: procs[0] for tid in order}
        del mapping[order[len(order) // 2]]
        evaluator = BatchMappingEvaluator(graph, net)
        with pytest.raises(SchedulingError, match="misses tasks"):
            evaluator.evaluate(mapping)

    def test_non_processor_target_raises(self):
        graph, net = self._workload()
        switch = net.add_switch()
        net.connect(net.processors()[0], switch)
        mapping = {t.tid: switch.vid for t in graph.tasks()}
        with pytest.raises(SchedulingError, match="non-processor"):
            BatchMappingEvaluator(graph, net).evaluate(mapping)

    def test_bad_order_rejected(self):
        graph, net = self._workload()
        order = priority_list(graph)
        with pytest.raises(SchedulingError, match="permutation"):
            BatchMappingEvaluator(graph, net, order=order[:-1])

    def test_batch_counters(self):
        graph, net = self._workload()
        order = priority_list(graph)
        procs = sorted(p.vid for p in net.processors())
        base = {tid: procs[0] for tid in order}
        moved = dict(base)
        moved[order[-1]] = procs[1]  # shares the whole prefix but the last task
        obs.enable()
        obs.reset()  # the metrics registry is process-wide
        try:
            evaluator = BatchMappingEvaluator(graph, net)
            evaluator.evaluate_batch([base, moved])
            metrics = OBS.metrics
            assert metrics.counter("mapping.batch_evaluations").value == 1
            assert metrics.counter("mapping.batch_candidates").value == 2
            assert metrics.counter("mapping.evaluations").value == 2
            # The second candidate reuses every position but the last.
            assert (
                metrics.counter("mapping.shared_prefix_tasks").value
                == len(order) - 1
            )
        finally:
            obs.disable()

    def test_identical_skips(self):
        graph, net = self._workload()
        procs = sorted(p.vid for p in net.processors())
        mapping = {t.tid: procs[0] for t in graph.tasks()}
        obs.enable()
        obs.reset()
        try:
            evaluator = BatchMappingEvaluator(graph, net)
            first = evaluator.evaluate(mapping)
            second = evaluator.evaluate(dict(mapping))
            assert first == second
            assert OBS.metrics.counter("mapping.identical_skips").value == 1
            assert OBS.metrics.counter("mapping.evaluations").value == 2
        finally:
            obs.disable()

    def test_evaluate_emits_no_events(self):
        graph, net = self._workload()
        procs = sorted(p.vid for p in net.processors())
        mapping = {t.tid: procs[0] for t in graph.tasks()}
        obs.enable()
        try:
            BatchMappingEvaluator(graph, net).evaluate(mapping)
            assert list(OBS.bus.iter_events()) == []
        finally:
            obs.disable()
