"""Workloads of the end-to-end benchmark and the loops that measure them.

Every input derives from the run seed: an instance pool takes the children
of ``SeedSequence(seed)`` in spawn order, and the sweep workload plans its
units from ``ExperimentConfig.default()`` re-seeded with the run seed.  Both
skip the rare seed whose DAG would have a single layer (see
:func:`first_draws`).  The schedulers only ever receive the generated ``(graph, net)``.
Every round generates its instances afresh and its algorithms share them,
as in a sweep unit, so the topology's route and adjacency tables start cold.

A *round* is one pool item taken to validated schedules: generate, schedule
with every algorithm of the workload, validate every schedule and check its
makespan.  :func:`measure` cycles through the pool until the run's time is
spent (always finishing one full pass) and reports medians per item of the
round times scaled to the reference speed (see ``calibration``);
:func:`trace_run` takes a fixed subset of the pool through an untraced, a
traced and an observability pass to produce the per-layer table.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

import calibration
import numpy as np

import repro.core.validate as validate_mod
import repro.experiments.workloads as gen_mod
from repro import obs
from repro.core import SCHEDULERS
from repro.core.metrics import improvement_ratio
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig

#: ``ExperimentConfig``'s own seed; the only seed ``expected.json`` covers.
DEFAULT_SEED = ExperimentConfig().seed
#: The baseline every improvement percentage is taken against.
BASELINE = "ba"
#: Pool workers of the sweep workload's plain runs, capped at ``nproc``.
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Item:
    """One pool entry: a key for reports and what the round needs."""

    key: str
    payload: Any


@dataclass
class RunContext:
    """What a round needs beyond its item."""

    #: ``{instance key: {algorithm: makespan}}`` to compare against, or None
    expected: dict[str, dict[str, float]] | None
    #: directory for the sweep's throw-away result caches
    scratch: Path
    #: pool workers for the sweep workload
    jobs: int = 1


@dataclass
class Round:
    """One pool item taken to validated schedules."""

    item: str
    #: time to validated schedules: generation + scheduling + validation
    wall_s: float
    #: sum of |V| over the round's instances (each algorithm schedules all)
    n_tasks: int
    n_algorithms: int
    #: instance key -> algorithm -> makespan
    makespans: dict[str, dict[str, float]]
    #: algorithm -> schedule() seconds (instance workloads only)
    sched_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: ``UnitResult`` list of a sweep round
    unit_results: list = field(default_factory=list)
    #: share of reference speed the round ran at (plain runs only; see
    #: ``calibration``)
    speed: float = 1.0

    def at_reference(self, seconds: float) -> float:
        """``seconds`` of this round scaled to reference speed."""
        return seconds * self.speed


def _report(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _matches(ctx: RunContext, key: str, algo: str, makespan: float) -> bool:
    """Compare against ``expected.json``; report and return False on mismatch."""
    if ctx.expected is None:
        return True
    want = ctx.expected.get(key, {}).get(algo)
    if want == makespan:
        return True
    _report(f"makespan mismatch: instance {key} {algo}: got {makespan!r}, expected {want!r}")
    return False


def first_draws(config: ExperimentConfig, seed_seq: np.random.SeedSequence) -> tuple[int, int]:
    """|V| and layer count of the instance ``paper_workload`` builds from ``seed_seq``.

    They are its first two draws (``random_layered_dag`` at its default
    shape).  A one-layer DAG has no edges and ``scale_to_ccr`` rejects it,
    so the workloads leave such seeds out instead of failing on them.
    """
    rng = np.random.default_rng(seed_seq)
    lo, hi = config.task_range
    n_tasks = int(rng.integers(lo, hi + 1))
    mean = max(1.0, np.sqrt(n_tasks))
    return n_tasks, int(np.clip(rng.normal(mean, mean / 4), 1, n_tasks))


# -- instance workloads ---------------------------------------------------------


@dataclass(frozen=True)
class InstanceWorkload:
    """A pool of independent Section 6 instances, scheduled in-process."""

    name: str
    n_tasks: tuple[int, int]
    n_procs: int
    ccr: float
    algorithms: tuple[str, ...]
    #: instances per pool (one pass)
    pool: int
    #: instances taken through the traced run
    trace_pool: int

    def tiny(self) -> "InstanceWorkload":
        return replace(self, n_tasks=(15, 25), n_procs=8, pool=2, trace_pool=1)

    def _config(self) -> ExperimentConfig:
        return ExperimentConfig(task_range=self.n_tasks)

    def plan(self, seed: int) -> list[Item]:
        root = np.random.SeedSequence(seed)
        seqs: list[np.random.SeedSequence] = []
        while len(seqs) < self.pool:
            (ss,) = root.spawn(1)
            if first_draws(self._config(), ss)[1] > 1:
                seqs.append(ss)
        return [Item(str(i), ss) for i, ss in enumerate(seqs)]

    def trace_plan(self, seed: int) -> list[Item]:
        return self.plan(seed)[: self.trace_pool]

    def keys(self, item: Item) -> list[str]:
        return [item.key]

    def instances(self, item: Item):
        """Fresh ``(key, WorkloadInstance)`` pairs of one item."""
        rng = np.random.default_rng(item.payload)
        yield item.key, gen_mod.paper_workload(self._config(), self.ccr, self.n_procs, rng)

    def run_round(self, item: Item, ctx: RunContext, *, serial: bool = False) -> Round:
        start = perf_counter()
        (key, inst), = self.instances(item)
        makespans: dict[str, float] = {}
        sched_s: dict[str, float] = {}
        failed = 0
        for algo in self.algorithms:
            try:
                t0 = perf_counter()
                schedule = SCHEDULERS[algo]().schedule(inst.graph, inst.net)
                sched_s[algo] = perf_counter() - t0
                validate_mod.validate_schedule(schedule)
            except Exception:  # the benchmark reports every failure and goes on
                traceback.print_exc()
                failed += 1
                continue
            makespans[algo] = schedule.makespan
            failed += not _matches(ctx, key, algo, schedule.makespan)
        wall = perf_counter() - start
        return Round(
            item=item.key,
            wall_s=wall,
            n_tasks=inst.graph.num_tasks,
            n_algorithms=len(self.algorithms),
            makespans={key: makespans},
            sched_s=sched_s,
            attempted=len(self.algorithms),
            failed=failed,
        )


# -- the figure sweep -----------------------------------------------------------


@dataclass(frozen=True)
class SweepWorkload:
    """Figures 1 and 3 through the parallel runner with a cold result cache."""

    name: str
    algorithms: tuple[str, ...]
    #: the traced subset keeps every ``trace_stride``-th unit
    trace_stride: int
    #: cap on units per sweep (tiny scale only)
    limit: int | None = None

    def tiny(self) -> "SweepWorkload":
        return replace(self, limit=3, trace_stride=2)

    def _items(self, seed: int, stride: int) -> list[Item]:
        items = []
        for label, het in (("homogeneous", False), ("heterogeneous", True)):
            config = ExperimentConfig.default(heterogeneous=het).with_(seed=seed)
            _x, units = parallel.plan_sweep(config, "ccr")
            chosen = [
                u for u in units[: self.limit][::stride]
                if first_draws(config, u.seed_seq)[1] > 1
            ]
            # execute_units wants indices 0..n-1; keys keep the sweep's own.
            keys = [f"{label}/{u.index}" for u in chosen]
            chosen = [replace(u, index=i) for i, u in enumerate(chosen)]
            items.append(Item(label, (config, chosen, keys)))
        return items

    def plan(self, seed: int) -> list[Item]:
        return self._items(seed, 1)

    def trace_plan(self, seed: int) -> list[Item]:
        return self._items(seed, self.trace_stride)

    def keys(self, item: Item) -> list[str]:
        return item.payload[2]

    def instances(self, item: Item):
        config, units, keys = item.payload
        for unit, key in zip(units, keys):
            rng = np.random.default_rng(unit.seed_seq)
            yield key, gen_mod.paper_workload(config, unit.ccr, unit.n_procs, rng)

    def run_round(self, item: Item, ctx: RunContext, *, serial: bool = False) -> Round:
        config, units, keys = item.payload
        n_algos = len(config.algorithms)
        attempted = len(units) * n_algos
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=ctx.scratch))
        results: list = []
        failed = 0
        start = perf_counter()
        try:
            results = parallel.execute_units(
                config, units, jobs=1 if serial else ctx.jobs,
                validate=True, cache=ResultCache(cache_dir),
            )
        except Exception:  # a failed unit fails the whole round
            traceback.print_exc()
            failed = attempted
        wall = perf_counter() - start
        shutil.rmtree(cache_dir, ignore_errors=True)
        makespans: dict[str, dict[str, float]] = {}
        for res in results:
            key = keys[res.index]
            makespans[key] = dict(res.makespans)
            for algo, makespan in res.makespans.items():
                failed += not _matches(ctx, key, algo, makespan)
        return Round(
            item=item.key,
            wall_s=wall,
            n_tasks=sum(first_draws(config, u.seed_seq)[0] for u in units),
            n_algorithms=n_algos,
            makespans=makespans,
            attempted=attempted,
            failed=failed,
            unit_results=results,
        )


WORKLOADS: dict[str, InstanceWorkload | SweepWorkload] = {
    w.name: w
    for w in (
        InstanceWorkload(
            name="wan-300", n_tasks=(300, 300), n_procs=128, ccr=1.0,
            algorithms=("ba", "oihsa", "bbsa"), pool=12, trace_pool=3,
        ),
        SweepWorkload(
            name="figs-default", algorithms=("ba", "oihsa", "bbsa"), trace_stride=5,
        ),
        InstanceWorkload(
            name="search-120", n_tasks=(60, 140), n_procs=16, ccr=2.0,
            algorithms=("ba", "annealing", "genetic"), pool=60, trace_pool=16,
        ),
    )
}


def get(name: str, scale: str = "full") -> InstanceWorkload | SweepWorkload:
    """The named workload at ``full`` or ``tiny`` (self-test) scale."""
    workload = WORKLOADS[name]
    return workload if scale == "full" else workload.tiny()


# -- plain measurement ------------------------------------------------------------


@dataclass
class Measurement:
    """Summary of one plain run."""

    metrics: dict[str, float]
    #: samples behind each metric
    samples: dict[str, int]
    #: numbers reported beside the declared metrics
    info: dict[str, float]
    attempted: int
    failed: int
    rounds: int


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (and of its waited-for children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload, seed: int, seconds: float, ctx: RunContext) -> Measurement:
    """Cycle through the pool for ``seconds`` (at least one full pass),
    sampling the machine's speed during every round."""
    items = workload.plan(seed)
    # The sweep's work runs in its pool workers, so they are the ones sampled.
    pooled = isinstance(workload, SweepWorkload)
    rounds: list[Round] = []
    sampler = calibration.SpeedSampler()
    try:
        start = perf_counter()
        while True:
            with sampler.span(children=pooled) as speed:
                r = workload.run_round(items[len(rounds) % len(items)], ctx)
            r.speed = speed.share
            rounds.append(r)
            elapsed = perf_counter() - start
            if len(rounds) >= len(items) and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        sampler.close()
    return summarize(workload, rounds, include_children=pooled)


def summarize(workload, rounds: list[Round], *, include_children: bool) -> Measurement:
    by_item: dict[str, list[Round]] = {}
    for r in rounds:
        by_item.setdefault(r.item, []).append(r)
    failed = sum(r.failed for r in rounds)
    # A repeated round must reproduce its first makespans exactly.
    for repeats in by_item.values():
        for r in repeats[1:]:
            for key, spans in r.makespans.items():
                if spans != repeats[0].makespans.get(key):
                    _report(f"makespans of {key} changed between repeats")
                    failed += 1
    tasks = sum(rs[0].n_tasks * rs[0].n_algorithms for rs in by_item.values())
    item_wall = sum(
        statistics.median(r.at_reference(r.wall_s) for r in rs) for rs in by_item.values()
    )
    metrics = {
        "tasks_per_s": tasks / item_wall,
        "peak_rss_mb": peak_rss_mb(include_children),
    }
    samples = {"tasks_per_s": len(rounds), "peak_rss_mb": 1}
    info: dict[str, float] = {
        "tasks_per_s.unscaled": tasks / sum(
            statistics.median(r.wall_s for r in rs) for rs in by_item.values()
        ),
        "speed": statistics.median(r.speed for r in rounds),
    }
    firsts = [rs[0] for rs in by_item.values()]
    for algo in workload.algorithms:
        if all(algo in rs[0].sched_s for rs in by_item.values()):
            sched = sum(
                statistics.median(r.at_reference(r.sched_s[algo]) for r in rs if algo in r.sched_s)
                for rs in by_item.values()
            )
            info[f"tasks_per_s.{algo}"] = sum(r.n_tasks for r in firsts) / sched
        if algo != BASELINE:
            gains = [
                improvement_ratio(spans[BASELINE], spans[algo])
                for r in firsts
                for spans in r.makespans.values()
                if BASELINE in spans and algo in spans
            ]
            if gains:
                info[f"improvement_pct.{algo}"] = statistics.fmean(gains)
    return Measurement(
        metrics=metrics,
        samples=samples,
        info=info,
        attempted=sum(r.attempted for r in rounds),
        failed=failed,
        rounds=len(rounds),
    )


# -- traced measurement -----------------------------------------------------------


@dataclass
class TraceResult:
    metrics: dict[str, float]
    #: algorithm -> (layer self times + other, traced schedule() wall)
    sums: dict[str, tuple[float, float]]
    attempted: int
    failed: int


def _obs_pass(workload, items: list[Item], untraced: dict[str, dict[str, float]]):
    """Time every algorithm with observability off and on, on fresh instances."""
    off: dict[str, float] = {}
    on: dict[str, float] = {}
    attempted = failed = 0
    for item in items:
        for (key, inst_off), (_k, inst_on) in zip(
            workload.instances(item), workload.instances(item)
        ):
            for algo in workload.algorithms:
                t0 = perf_counter()
                ms_off = SCHEDULERS[algo]().schedule(inst_off.graph, inst_off.net).makespan
                off[algo] = off.get(algo, 0.0) + perf_counter() - t0
                obs.enable(obs.NullSink())
                try:
                    t0 = perf_counter()
                    ms_on = SCHEDULERS[algo]().schedule(inst_on.graph, inst_on.net).makespan
                    on[algo] = on.get(algo, 0.0) + perf_counter() - t0
                finally:
                    obs.disable()
                    obs.reset()
                attempted += 2
                want = untraced.get(key, {}).get(algo)
                for got in (ms_off, ms_on):
                    if got != want:
                        _report(f"observability pass: {key} {algo} gave {got!r}, expected {want!r}")
                        failed += 1
    return off, on, attempted, failed


def trace_run(workload, seed: int, ctx: RunContext, tracer) -> TraceResult:
    """Untraced, traced and observed passes over the workload's trace subset."""
    import tracing

    items = workload.trace_plan(seed)
    # Warm-up, so first-call costs land on neither side of the overhead ratio.
    workload.run_round(items[0], ctx, serial=True)
    untraced = [workload.run_round(item, ctx, serial=True) for item in items]
    traced = []
    with tracer.installed():
        for item in items:
            tracer.instance = item.key
            tracer.unit_keys = workload.keys(item)
            traced.append(workload.run_round(item, ctx, serial=True))
    attempted = sum(r.attempted for r in untraced + traced)
    failed = sum(r.failed for r in untraced + traced)
    untraced_spans = {k: v for r in untraced for k, v in r.makespans.items()}
    for r in traced:
        for key, spans in r.makespans.items():
            if spans != untraced_spans.get(key):
                _report(f"traced makespans of {key} differ from untraced ones")
                failed += 1
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_pct"] = tracing.overhead_pct(
        sum(r.wall_s for r in traced), sum(r.wall_s for r in untraced)
    )
    off, on, obs_attempted, obs_failed = _obs_pass(workload, items, untraced_spans)
    attempted += obs_attempted
    failed += obs_failed
    for algo in tracing.ALGORITHMS:
        metrics[f"obs.overhead_pct.{algo}"] = (
            tracing.overhead_pct(on[algo], off[algo]) if algo in off else 0.0
        )
    parallel_stats = tracing.parallel_metrics([], 0.0, ctx.jobs)
    if isinstance(workload, SweepWorkload):
        rounds = [workload.run_round(item, ctx) for item in items]
        attempted += sum(r.attempted for r in rounds)
        failed += sum(r.failed for r in rounds)
        results = [res for r in rounds for res in r.unit_results]
        parallel_stats = tracing.parallel_metrics(
            results, sum(r.wall_s for r in rounds), ctx.jobs
        )
    metrics.update(parallel_stats)
    return TraceResult(
        metrics=metrics, sums=tracer.sum_check(), attempted=attempted, failed=failed
    )


def expected_makespans(workload, ctx: RunContext) -> dict[str, dict[str, float]]:
    """One pass over the pool at the default seed (for ``expected.json``)."""
    out: dict[str, dict[str, float]] = {}
    for item in workload.plan(DEFAULT_SEED):
        r = workload.run_round(item, ctx)
        if r.failed:
            raise RuntimeError(f"{workload.name}: item {item.key} failed")
        out.update(r.makespans)
    return out


def default_jobs(workload) -> int:
    """Pool workers for a plain run: ``SWEEP_JOBS`` for the sweep, capped at ``nproc``."""
    if isinstance(workload, SweepWorkload):
        return max(1, min(SWEEP_JOBS, os.cpu_count() or 1))
    return 1
