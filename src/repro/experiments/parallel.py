"""Deterministic parallel fan-out for experiment sweeps.

The paper's Section 6 sweeps (CCR x processor count x repetitions) are
embarrassingly parallel: every repetition is an independent ``(instance,
algorithms)`` work unit.  This module flattens a sweep into those units,
executes them — in process for ``jobs=1``, on a ``ProcessPoolExecutor``
otherwise — and merges the results in the serial order, so
``improvement_series(..., jobs=N)`` returns **exactly** what the serial path
returns for any ``N``.

The determinism contract (asserted by ``tests/test_parallel_equivalence.py``):

1. **Seeds are spawned up front** from the master RNG at plan time, in the
   serial iteration order (sweep point -> inner grid -> repetition).  Workers
   never touch the master RNG, so the instance stream cannot depend on
   worker count or completion order.  ``SeedSequence.spawn`` increments a
   counter on the parent sequence; batched spawning is therefore identical
   to the serial path's incremental spawning.
2. **Workers are pure**: a unit's outcome is a function of ``(config, unit
   seed, algorithms)`` only.  Float results are identical across processes
   because the same code runs the same IEEE-754 operations on the same
   inputs.
3. **Merging is order-fixed**: results are reassembled by unit index, and all
   aggregation (means, SEMs, counter averaging) consumes them in that order,
   so float summation order matches the serial path bit for bit.

Observability crosses the process boundary as plain data: each worker runs
its units with :mod:`repro.obs` enabled (``NullSink`` — counters and
timings, no event transport), extracts every ``ScheduleStats`` counter
capture via ``to_dict()``-style dicts, and the parent merges them into the
same ``"<algorithm>:<counter>"`` series the serial path emits.

When a :class:`~repro.experiments.cache.ResultCache` is supplied, cache
lookups happen in the parent before any fan-out; only the missing
``(instance, algorithm)`` pairs are scheduled, and fresh outcomes are
written back for the next sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError
from repro.experiments.cache import ResultCache, config_fingerprint, unit_key
from repro.experiments.config import ExperimentConfig
from repro.obs.profile import Timings
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class SweepUnit:
    """One independent repetition of the sweep: a workload seed at a grid cell."""

    index: int
    #: position along the swept axis (the figure's x grid)
    point_idx: int
    #: the swept value itself (CCR or processor count, as float)
    x: float
    ccr: float
    n_procs: int
    #: repetition number within the grid cell
    rep: int
    #: pre-spawned seed of this instance (workers build their RNG from it)
    seed_seq: np.random.SeedSequence

    @property
    def seed_key(self) -> tuple:
        """Stable cache identity of the instance seed."""
        return (self.seed_seq.entropy, tuple(self.seed_seq.spawn_key))


@dataclass(frozen=True)
class UnitResult:
    """Outcome of one unit: per-algorithm makespans and counter captures.

    ``counters`` is ``{algorithm: {counter_name: value}}`` when observability
    captures were taken (``with_metrics``), ``None`` otherwise — mirroring
    ``ComparisonResult.stats`` being ``None`` when obs is off.
    """

    index: int
    point_idx: int
    makespans: dict[str, float]
    counters: dict[str, dict[str, float]] | None = None
    cached: bool = False
    #: algorithms actually scheduled in this run (not served from cache)
    fresh_algorithms: tuple[str, ...] = ()
    #: per-algorithm phase spans of the fresh runs (``None`` when obs was off)
    timings: dict[str, Timings] | None = None
    #: wall-clock execution telemetry of the fresh work.  Nondeterministic —
    #: excluded from the deterministic telemetry subset and from caching.
    wall_s: float | None = None
    worker: int | None = None
    t_start: float | None = None
    t_end: float | None = None


def plan_sweep(
    config: ExperimentConfig, sweep: str
) -> tuple[list[float], list[SweepUnit]]:
    """Flatten a sweep into work units, spawning every instance seed up front.

    Returns ``(x_values, units)`` with units in the exact serial iteration
    order; ``unit.index`` is the position in that order.  Planning twice with
    the same config yields identical seeds (``SeedSequence`` spawning is a
    pure function of the master seed and spawn count).
    """
    if sweep not in ("ccr", "procs"):
        raise ReproError(f"sweep must be 'ccr' or 'procs', got {sweep!r}")
    master = as_rng(config.seed)
    x_values = config.ccrs if sweep == "ccr" else config.proc_counts
    units: list[SweepUnit] = []
    index = 0
    for point_idx, x in enumerate(x_values):
        inner = config.ccrs if sweep == "procs" else config.proc_counts
        for y in inner:
            ccr = x if sweep == "ccr" else float(y)
            n_procs = int(y) if sweep == "ccr" else int(x)
            seeds = master.bit_generator.seed_seq.spawn(config.repetitions)
            for rep, seed_seq in enumerate(seeds):
                units.append(
                    SweepUnit(
                        index=index,
                        point_idx=point_idx,
                        x=float(x),
                        ccr=ccr,
                        n_procs=n_procs,
                        rep=rep,
                        seed_seq=seed_seq,
                    )
                )
                index += 1
    return [float(x) for x in x_values], units


def run_unit(
    config: ExperimentConfig,
    unit: SweepUnit,
    algorithms: tuple[str, ...],
    *,
    validate: bool = False,
    with_metrics: bool = False,
) -> UnitResult:
    """Execute one unit: regenerate its instance and schedule ``algorithms``.

    Pure with respect to the unit seed — safe to run in any process, in any
    order.  ``algorithms`` may be a subset of ``config.algorithms`` when the
    rest of the unit was served from cache.
    """
    from repro import obs
    from repro.experiments.runner import compare_once
    from repro.experiments.workloads import paper_workload

    enabled_here = False
    if with_metrics and not obs.is_enabled():
        # Fresh worker process (spawn start method, or first unit): turn on
        # counter/timing capture without event transport.
        obs.enable(obs.NullSink())
        enabled_here = True
    t_start = time.time()
    clock_start = time.perf_counter()
    try:
        rng = np.random.default_rng(unit.seed_seq)
        instance = paper_workload(config, unit.ccr, unit.n_procs, rng)
        result = compare_once(instance, tuple(algorithms), validate=validate)
    finally:
        if enabled_here:
            obs.disable()
    wall = time.perf_counter() - clock_start
    counters: dict[str, dict[str, float]] | None = None
    timings: dict[str, Timings] | None = None
    if result.stats:
        counters = {
            name: dict(stats.metrics.get("counters", {}))
            for name, stats in result.stats.items()
        }
        timings = {
            name: {phase: dict(rec) for phase, rec in stats.timings.items()}
            for name, stats in result.stats.items()
        }
    return UnitResult(
        index=unit.index,
        point_idx=unit.point_idx,
        makespans=dict(result.makespans),
        counters=counters,
        fresh_algorithms=tuple(algorithms),
        timings=timings,
        wall_s=wall,
        worker=os.getpid(),
        t_start=t_start,
        t_end=time.time(),
    )


def _run_unit_star(args: tuple) -> UnitResult:
    """Module-level trampoline so work units pickle into pool workers."""
    config, unit, algorithms, validate, with_metrics = args
    return run_unit(
        config, unit, algorithms, validate=validate, with_metrics=with_metrics
    )


def execute_units(
    config: ExperimentConfig,
    units: list[SweepUnit],
    *,
    jobs: int = 1,
    validate: bool = False,
    with_metrics: bool = False,
    cache: ResultCache | None = None,
) -> list[UnitResult]:
    """Run every unit — cache first, then serial or pooled — in unit order.

    Cache lookups are per ``(instance, algorithm)``: a unit with some
    algorithms cached schedules only the missing ones and merges.  A cached
    record only satisfies a ``with_metrics`` request if it carries counters
    (records written by a metrics-off sweep don't).
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    results: list[UnitResult | None] = [None] * len(units)
    #: units still needing work: (unit, algorithms to schedule)
    pending: list[tuple[SweepUnit, tuple[str, ...]]] = []
    #: partially-cached makespans/counters to merge with fresh results
    partial: dict[int, tuple[dict, dict]] = {}
    fingerprint = config_fingerprint(config) if cache is not None else ""
    for unit in units:
        if cache is None:
            pending.append((unit, config.algorithms))
            continue
        makespans: dict[str, float] = {}
        counters: dict[str, dict[str, float]] = {}
        missing: list[str] = []
        for algorithm in config.algorithms:
            key = unit_key(
                fingerprint, unit.ccr, unit.n_procs, unit.seed_key, algorithm
            )
            record = cache.get(key)
            if record is not None and with_metrics and record.get("counters") is None:
                # Written by a metrics-off sweep: no counters to replay.
                cache.stats.hits -= 1
                cache.stats.misses += 1
                record = None
            if record is None:
                missing.append(algorithm)
                continue
            makespans[algorithm] = record["makespan"]
            if record.get("counters") is not None:
                counters[algorithm] = record["counters"]
        if missing:
            pending.append((unit, tuple(missing)))
            partial[unit.index] = (makespans, counters)
        else:
            results[unit.index] = UnitResult(
                index=unit.index,
                point_idx=unit.point_idx,
                makespans=makespans,
                counters=counters if with_metrics else (counters or None),
                cached=True,
            )
    if pending:
        if jobs == 1 or len(pending) == 1:
            fresh = [
                run_unit(
                    config, unit, algorithms,
                    validate=validate, with_metrics=with_metrics,
                )
                for unit, algorithms in pending
            ]
        else:
            from concurrent.futures import ProcessPoolExecutor

            # Import what the workers run before starting them, so workers
            # started by fork inherit it instead of each importing it again.
            import repro.experiments.runner  # noqa: F401  (run_unit's callee)
            from repro.core import SCHEDULERS

            for algorithm in config.algorithms:
                SCHEDULERS.get(algorithm)
            work = [
                (config, unit, algorithms, validate, with_metrics)
                for unit, algorithms in pending
            ]
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))
            ) as pool:
                fresh = list(pool.map(_run_unit_star, work))
        for (unit, algorithms), res in zip(pending, fresh):
            cached_makespans, cached_counters = partial.get(
                unit.index, ({}, {})
            )
            makespans = dict(cached_makespans)
            makespans.update(res.makespans)
            counters: dict[str, dict[str, float]] | None
            if res.counters is None and not cached_counters:
                counters = None
            else:
                counters = dict(cached_counters)
                counters.update(res.counters or {})
            if cache is not None:
                for algorithm in algorithms:
                    key = unit_key(
                        fingerprint,
                        unit.ccr,
                        unit.n_procs,
                        unit.seed_key,
                        algorithm,
                    )
                    cache.put(
                        key,
                        {
                            "makespan": res.makespans[algorithm],
                            "counters": (
                                res.counters[algorithm]
                                if res.counters is not None
                                else None
                            ),
                        },
                    )
            results[unit.index] = UnitResult(
                index=unit.index,
                point_idx=unit.point_idx,
                makespans=makespans,
                counters=counters,
                fresh_algorithms=res.fresh_algorithms,
                timings=res.timings,
                wall_s=res.wall_s,
                worker=res.worker,
                t_start=res.t_start,
                t_end=res.t_end,
            )
    return [r for r in results if r is not None]


@dataclass(frozen=True)
class SweepTelemetry:
    """Cross-process execution telemetry of one sweep, merged order-fixed.

    Built by :func:`collect_telemetry` from the unit results in **unit-index
    order** regardless of which worker produced them or when they completed,
    so the deterministic subset — counters, span counts, cache attribution —
    is byte-identical for any ``jobs`` count (asserted by
    ``tests/test_parallel_equivalence.py``).  Wall-clock quantities (unit
    wall time, worker pids, start/end stamps) ride along for the
    worker-utilization report but are excluded from the deterministic form.
    """

    #: per-unit entries, ascending unit index (see :func:`collect_telemetry`)
    units: tuple[dict, ...] = ()

    def to_dict(self, *, deterministic_only: bool = False) -> dict:
        """JSON-ready form.

        With ``deterministic_only=True``, wall-clock fields (``wall_s``,
        ``worker``, ``t_start``, ``t_end``) and span *totals* are dropped and
        only span **counts** are kept — everything left is a pure function of
        (config, seeds, algorithms), identical for any worker count.
        """
        if not deterministic_only:
            return {"units": [dict(u) for u in self.units]}
        units = []
        for u in self.units:
            entry = {
                k: u[k]
                for k in (
                    "index", "point_idx", "cached", "fresh_algorithms",
                    "cached_algorithms", "counters",
                )
            }
            timings = u.get("timings")
            if timings is not None:
                entry["span_counts"] = {
                    algo: {
                        phase: int(rec["count"]) for phase, rec in sorted(t.items())
                    }
                    for algo, t in sorted(timings.items())
                }
            units.append(entry)
        return {"units": units}

    # -- aggregate views -------------------------------------------------------

    def cache_attribution(self) -> dict[str, int]:
        """Unit and algorithm-run counts by where the work came from."""
        full = sum(1 for u in self.units if u["cached"])
        partial = sum(
            1 for u in self.units if not u["cached"] and u["cached_algorithms"]
        )
        cached_runs = sum(len(u["cached_algorithms"]) for u in self.units)
        fresh_runs = sum(len(u["fresh_algorithms"]) for u in self.units)
        return {
            "units": len(self.units),
            "units_cached": full,
            "units_partial": partial,
            "units_fresh": len(self.units) - full - partial,
            "algorithm_runs_cached": cached_runs,
            "algorithm_runs_fresh": fresh_runs,
        }

    def worker_utilization(self) -> list[dict]:
        """Per-worker busy time and span, ordered by first unit executed."""
        by_worker: dict[int, list[dict]] = {}
        for u in self.units:
            if u.get("worker") is not None:
                by_worker.setdefault(u["worker"], []).append(u)
        out = []
        for worker, worked in sorted(
            by_worker.items(), key=lambda kv: min(u["index"] for u in kv[1])
        ):
            stamps = [
                (u["t_start"], u["t_end"])
                for u in worked
                if u.get("t_start") is not None and u.get("t_end") is not None
            ]
            span = (
                max(t1 for _t0, t1 in stamps) - min(t0 for t0, _t1 in stamps)
                if stamps
                else 0.0
            )
            busy = sum(u.get("wall_s") or 0.0 for u in worked)
            out.append(
                {
                    "worker": worker,
                    "units": len(worked),
                    "busy_s": busy,
                    "span_s": span,
                    "utilization": busy / span if span > 0 else 1.0,
                }
            )
        return out

    def summary_dict(self) -> dict:
        """Compact aggregate for run-ledger records (deterministic fields
        plus coarse wall totals)."""
        workers = self.worker_utilization()
        return {
            **self.cache_attribution(),
            "workers": len(workers),
            "busy_s": round(sum(w["busy_s"] for w in workers), 6),
        }

    def to_text(self, *, prefix: str = "") -> str:
        """Cache attribution + worker-utilization lines for sweep reports."""
        attribution = self.cache_attribution()
        lines = [
            f"{attribution['units']} units: {attribution['units_fresh']} fresh"
            f", {attribution['units_partial']} partial"
            f", {attribution['units_cached']} cached"
            f"; cache served {attribution['algorithm_runs_cached']}/"
            f"{attribution['algorithm_runs_cached'] + attribution['algorithm_runs_fresh']}"
            " algorithm runs"
        ]
        for w in self.worker_utilization():
            lines.append(
                f"worker {w['worker']}: {w['units']} units, "
                f"busy {w['busy_s']:.2f}s over {w['span_s']:.2f}s span "
                f"({w['utilization']:.0%} utilized)"
            )
        return "\n".join(prefix + line for line in lines)


def collect_telemetry(results: list[UnitResult]) -> SweepTelemetry:
    """Merge per-unit telemetry in unit-index order (worker-count invariant)."""
    units = []
    for res in sorted(results, key=lambda r: r.index):
        all_algorithms = sorted(res.makespans)
        units.append(
            {
                "index": res.index,
                "point_idx": res.point_idx,
                "cached": res.cached,
                "fresh_algorithms": sorted(res.fresh_algorithms),
                "cached_algorithms": sorted(
                    set(all_algorithms) - set(res.fresh_algorithms)
                ),
                "counters": res.counters,
                "timings": res.timings,
                "wall_s": res.wall_s,
                "worker": res.worker,
                "t_start": res.t_start,
                "t_end": res.t_end,
            }
        )
    return SweepTelemetry(units=tuple(units))


def merge_unit_results(
    config: ExperimentConfig,
    x_values: list[float],
    results: list[UnitResult],
    *,
    with_sem: bool = False,
    with_metrics: bool = False,
) -> dict[str, list[float]]:
    """Aggregate unit results into the ``improvement_series`` output dict.

    Consumes ``results`` grouped by sweep point in unit-index order, so every
    float reduction (mean, SEM, counter sum) happens in exactly the order the
    serial loop used.  Counter series are zero-padded symmetrically: a counter
    first seen at a later point is back-filled with zeros, and a counter that
    stops appearing is forward-filled, so every ``"<algorithm>:<counter>"``
    series spans every sweep point regardless of where it was observed.
    """
    from repro.core.metrics import improvement_ratio

    candidates = [a for a in config.algorithms if a != config.baseline]
    series: dict[str, list[float]] = {name: [] for name in candidates}
    sems: dict[str, list[float]] = {name: [] for name in candidates}
    metric_series: dict[str, list[float]] = {}
    by_point: dict[int, list[UnitResult]] = {}
    for res in sorted(results, key=lambda r: r.index):
        by_point.setdefault(res.point_idx, []).append(res)
    for point_idx in range(len(x_values)):
        point_results = by_point.get(point_idx, [])
        if not point_results:
            raise ReproError(f"sweep point {point_idx} has no results")
        per_alg: dict[str, list[float]] = {name: [] for name in candidates}
        point_counters: dict[str, list[float]] = {}
        point_instances = 0
        for res in point_results:
            try:
                base = res.makespans[config.baseline]
            except KeyError:
                raise ReproError(
                    f"baseline {config.baseline!r} missing from unit {res.index}"
                ) from None
            for name in candidates:
                per_alg[name].append(
                    improvement_ratio(base, res.makespans[name])
                )
            if with_metrics and res.counters:
                point_instances += 1
                for name, counts in res.counters.items():
                    for cname, value in counts.items():
                        key = f"{name}:{cname}"
                        point_counters.setdefault(key, []).append(value)
        for name in candidates:
            values = np.asarray(per_alg[name])
            series[name].append(float(values.mean()))
            sems[name].append(
                float(values.std(ddof=1) / np.sqrt(len(values)))
                if len(values) > 1
                else 0.0
            )
        if with_metrics:
            # A counter an algorithm never touched at this point means 0,
            # not absent — pad both directions so every series spans every
            # sweep point: back-fill series first seen here, forward-fill
            # series that skipped this point.
            for key, values in point_counters.items():
                metric_series.setdefault(key, [0.0] * point_idx).append(
                    sum(values) / max(1, point_instances)
                )
            for values in metric_series.values():
                while len(values) < point_idx + 1:
                    values.append(0.0)
    out: dict[str, list[float]] = dict(series)
    out["_x"] = list(x_values)
    if with_sem:
        for name in candidates:
            out[f"{name}_sem"] = sems[name]
    out.update(metric_series)
    return out
