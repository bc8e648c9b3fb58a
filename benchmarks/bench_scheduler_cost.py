"""Scheduler runtime scaling: time one schedule() call per algorithm.

Not a paper figure — this measures the *cost* of each algorithm on a fixed
mid-size workload so regressions in the engines (gap search, deferral
cascade, fluid sweep, routing probes) show up as timing changes.

The timed benchmark runs with observability **disabled** (the production
configuration).  A separate instrumented pass per algorithm — outside the
benchmark timer, and the same pass ``repro runs compare --fresh`` makes
(:func:`repro.experiments.workloads.scheduler_cost_run`) — collects the
per-phase breakdown (routing vs insertion vs processor selection vs task
placement) plus the run's decision counters, and the module writes the lot
to ``BENCH_scheduler_cost.json`` in the working directory.  That pass scores
the mapping searches with the Python kernel, so the counters do not depend
on whether the C kernel is built.

Each algorithm's **makespan** on the fixed workload is recorded too, plus a
``makespan_checksum`` over all of them: performance work on the engines must
never change what they compute, so CI compares the checksum against the
baseline ``BENCH_scheduler_cost.json`` committed at the repo root (see
``benchmarks/compare_scheduler_cost.py``) and fails on any drift.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import SCHEDULERS
from repro.experiments.workloads import scheduler_cost_run, scheduler_cost_workload

_phase_report: dict[str, dict] = {}


@pytest.fixture(scope="module")
def workload():
    return scheduler_cost_workload()


def makespan_checksum(report: dict[str, dict]) -> str:
    """Order-independent digest of every algorithm's makespan.

    Uses ``repr`` of the floats (shortest round-trip form) so the digest is
    bit-exact: any behavioral drift in any engine changes it.
    """
    lines = sorted(f"{algo}={report[algo]['makespan']!r}" for algo in report)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("algo", sorted(SCHEDULERS))
def test_scheduler_runtime(benchmark, workload, algo):
    scheduler_cls = SCHEDULERS[algo]
    result = benchmark(lambda: scheduler_cls().schedule(workload.graph, workload.net))
    assert result.makespan > 0
    _phase_report[algo] = scheduler_cost_run(algo)


@pytest.mark.parametrize("n_tasks", [25, 50, 100])
def test_oihsa_scaling_with_tasks(benchmark, n_tasks):
    from repro.network.builders import random_wan
    from repro.taskgraph.ccr import scale_to_ccr
    from repro.taskgraph.generators import random_layered_dag

    graph = scale_to_ccr(random_layered_dag(n_tasks, rng=1, density=0.05), 2.0)
    net = random_wan(16, rng=2)
    scheduler_cls = SCHEDULERS["oihsa"]
    result = benchmark(lambda: scheduler_cls().schedule(graph, net))
    assert result.makespan > 0


@pytest.fixture(scope="module", autouse=True)
def _write_phase_report():
    """After the module's benchmarks, dump the instrumented breakdown."""
    yield
    if not _phase_report:
        return
    out = Path("BENCH_scheduler_cost.json")
    payload = {
        "algorithms": _phase_report,
        "makespan_checksum": makespan_checksum(_phase_report),
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"\nwrote per-phase scheduler cost breakdown to {out.resolve()}")
    # Ledger record of the bench run (same shape `repro runs compare` checks).
    from repro.obs import runlog
    from repro.experiments.workloads import SCHEDULER_COST_PARAMS

    record = runlog.new_record(
        "bench",
        fingerprint_doc={
            "bench": "scheduler_cost",
            "params": SCHEDULER_COST_PARAMS,
            "algorithms": sorted(_phase_report),
        },
        makespans={a: r["makespan"] for a, r in _phase_report.items()},
        meta={
            "counters": {a: r["counters"] for a, r in _phase_report.items()},
            "wall_s": {a: r["wall_s"] for a, r in _phase_report.items()},
            "makespan_checksum": payload["makespan_checksum"],
        },
    )
    runlog.append(record)
    print(f"ledger: appended bench record {record.run_id}")
