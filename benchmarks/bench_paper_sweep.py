"""Paper-scale CCR sweep: |V| up to 1000 on a 128-processor fabric.

The figure benches run the scaled-down ``ExperimentConfig.default()`` grid
(tasks U(40, 120)); this module runs the published Section 6 problem *size*
— task counts U(40, 1000), 128 processors, the full CCR grid 0.1–10 — on a
leaf-spine fabric, through the deterministic parallel runner
(:mod:`repro.experiments.parallel`).  It exists to demonstrate that the
paper-scale points are tractable end to end and to pin their results:

- ``makespan_checksum`` digests **every unit's per-algorithm makespan**
  (repr-exact, order-fixed), so any engine drift at paper scale fails the
  comparison even where the aggregated improvement means would hide it.
- Makespans are kernel-independent by the bit-identity contract
  (``tests/test_batch_equivalence.py``), so the checksum reproduces with or
  without the AOT-built kernel; wall time is reported, never gated.
- ``peak_rss_mb`` is the larger of this process's and its pool workers'
  peak resident set, read once the pool has shut down: what one sweep
  worker needs at published scale.  Reported, never gated.

Repetitions default to 2 (the full 5 takes hours single-core) — override
with ``REPRO_PAPER_SWEEP_REPS``; worker count with ``REPRO_PAPER_SWEEP_JOBS``.
The session writes ``BENCH_paper_sweep.json`` to the working directory; the
committed copy is the baseline CI uploads as an artifact and compares
checksums against.  ``pytest benchmarks/bench_paper_sweep.py -k tiny`` runs
only the seconds-long check of the record's fields.
"""

import hashlib
import json
import os
import resource
import statistics
from pathlib import Path
from time import perf_counter

from repro.experiments.config import PAPER_CCRS, ExperimentConfig
from repro.experiments.parallel import (
    collect_telemetry,
    execute_units,
    merge_unit_results,
    plan_sweep,
)

REPS = int(os.environ.get("REPRO_PAPER_SWEEP_REPS", 2))
JOBS = int(os.environ.get("REPRO_PAPER_SWEEP_JOBS", min(4, os.cpu_count() or 1)))


def _config() -> ExperimentConfig:
    """The published problem size on a datacenter fabric."""
    return ExperimentConfig(
        ccrs=PAPER_CCRS,
        proc_counts=(128,),
        task_range=(40, 1000),
        repetitions=REPS,
        topology="leaf_spine",
    )


def unit_makespan_checksum(results) -> str:
    """Digest of every unit's per-algorithm makespan, repr-exact.

    Finer-grained than the figure benches' per-series checksum: a drift in
    any single instance fails, even if the point means happen to agree.
    """
    lines = [
        f"{res.index}:{algo}={res.makespans[algo]!r}"
        for res in sorted(results, key=lambda r: r.index)
        for algo in sorted(res.makespans)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children
    (the runner's pool workers), in MB."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def run_sweep(config: ExperimentConfig, jobs: int) -> tuple[dict, list]:
    """Run the CCR sweep; return the BENCH record and the unit results."""
    x_values, units = plan_sweep(config, "ccr")
    assert len(units) == len(config.ccrs) * config.repetitions

    t0 = perf_counter()
    results = execute_units(config, units, jobs=jobs)
    wall = perf_counter() - t0
    # execute_units has shut its pool down, so the workers are waited for.
    peak = peak_rss_mb()
    assert len(results) == len(units)

    unit_walls = [r.wall_s or 0.0 for r in results]
    doc = {
        "sweep": {
            "ccrs": list(config.ccrs),
            "n_procs": config.proc_counts[0],
            "task_range": list(config.task_range),
            "topology": config.topology,
            "repetitions": config.repetitions,
            "algorithms": list(config.algorithms),
            "seed": config.seed,
        },
        "units": len(results),
        "jobs": jobs,
        "wall_s": wall,
        # Per-unit wall times, not ``wall / units``: with ``jobs > 1`` units
        # overlap, so the sweep's wall time undercounts each unit's.
        "unit_wall_s": {
            "mean": statistics.fmean(unit_walls),
            "max": max(unit_walls),
        },
        "peak_rss_mb": peak,
        "makespan_checksum": unit_makespan_checksum(results),
        "improvement_series": merge_unit_results(config, x_values, results),
        "telemetry": collect_telemetry(results).summary_dict(),
    }
    return doc, results


def test_paper_scale_sweep():
    doc, results = run_sweep(_config(), JOBS)
    series = doc["improvement_series"]
    # The paper's qualitative claim must hold at published scale: the
    # contention-aware schedulers beat BA somewhere on the CCR grid.
    assert any(v > 0 for v in series["oihsa"]) and any(v > 0 for v in series["bbsa"])

    out = Path("BENCH_paper_sweep.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(
        f"\n{len(results)} paper-scale units in {doc['wall_s']:.1f}s "
        f"(jobs={JOBS}); wrote {out.resolve()}"
    )


def test_tiny_sweep_record():
    """The record's unit timings and fields on a seconds-long sweep."""
    config = _config().with_(
        ccrs=(0.5, 5.0), proc_counts=(8,), task_range=(10, 20), repetitions=2
    )
    doc, results = run_sweep(config, jobs=2)
    walls = [r.wall_s for r in results]
    assert all(w is not None and w > 0 for w in walls)
    assert doc["unit_wall_s"] == {
        "mean": statistics.fmean(walls),
        "max": max(walls),
    }
    # BA, OIHSA and BBSA never call the mapping-scoring kernel, so the
    # record carries no kernel provenance.
    assert "kernel_provenance" not in doc
    assert doc["units"] == 4 and doc["jobs"] == 2
    # A peak never falls, so a later reading bounds the recorded one.
    assert 0 < doc["peak_rss_mb"] <= peak_rss_mb()
    assert doc["sweep"]["n_procs"] == 8
