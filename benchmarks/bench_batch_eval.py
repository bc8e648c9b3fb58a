"""Batched array-native candidate scoring vs one full simulation per candidate.

The search-scheduler bench times whole searches; this module isolates the
scorer itself: scoring one fixed candidate *population* (a BA seed plus
deterministic mutations, the shape a genetic generation or annealing
neighborhood produces) through

- ``batch_array``: one :meth:`repro.core.batch.BatchMappingEvaluator.evaluate_batch`
  call — candidates sorted into prefix-trie order, whole batch forked from
  shared column checkpoints, and
- ``full_sequential``: the oracle, one
  ``simulate_mapping(...).makespan`` per candidate in caller order.

Both paths must produce the **bit-identical score list** — asserted here
per element and digested into ``scores_checksum``.  A fresh evaluator is
built per timed round so the batch path never serves a score from its
identical-candidate cache.

The session writes ``BENCH_batch_eval.json`` to the working directory; CI
compares it against the committed baseline with
``benchmarks/compare_scheduler_cost.py`` (the report shares its layout) and
gates on the checksum.  The speedup floor asserted below is deliberately
far under the locally measured ratio — CI runners are noisy, and the floor
only exists to catch the scorer silently degenerating to per-candidate
full work.

The batch series pins ``kernel="python"`` so the ``algorithms`` section —
and its makespan checksum — is reproducible on toolchain-free runners.
When the AOT-built extension is importable, a second test times the same
population through ``kernel="compiled"`` and records the comparison under
a separate top-level ``kernels`` key (absent from toolchain-free runs; the
compiled-kernel CI job gates on it with ``compiled_speedup_floor``).
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.core.ba import BAScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.mapping import simulate_mapping
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import paper_workload

#: candidates per population — one genetic generation's worth, times four
POPULATION = 64
#: timed rounds per path; the report keeps the fastest (min-of-N)
ROUNDS = 5
#: CI gate: the batch scorer must stay well ahead of full re-simulation
SPEEDUP_FLOOR = 2.0
#: CI gate (compiled job only): AOT kernel vs pure-Python reference kernel
COMPILED_SPEEDUP_FLOOR = 3.0

_report: dict[str, dict] = {}
_kernels: dict[str, dict] = {}


@pytest.fixture(scope="module")
def workload():
    config = ExperimentConfig.default()
    return paper_workload(config, ccr=2.0, n_procs=8, rng=777)


@pytest.fixture(scope="module")
def population(workload):
    """BA's mapping plus deterministic point mutations of it."""
    graph, net = workload.graph, workload.net
    seed_schedule = BAScheduler().schedule(graph, net)
    seed = {tid: pl.processor for tid, pl in seed_schedule.placements.items()}
    tasks = sorted(seed)
    procs = sorted(p.vid for p in net.processors())
    gen = np.random.default_rng(123)
    candidates = [dict(seed)]
    while len(candidates) < POPULATION:
        cand = dict(seed)
        # 1-4 point mutations: the move sizes annealing/genetic actually make.
        for _ in range(int(gen.integers(1, 5))):
            tid = tasks[int(gen.integers(0, len(tasks)))]
            cand[tid] = procs[int(gen.integers(0, len(procs)))]
        candidates.append(cand)
    return candidates


def _time_batch_array(graph, net, candidates, kernel="python") -> tuple[float, list[float]]:
    # kernel pinned to the pure-Python reference by default so the committed
    # baseline's timings/checksums do not depend on a C toolchain.
    best = float("inf")
    scores: list[float] = []
    for _ in range(ROUNDS):
        evaluator = BatchMappingEvaluator(graph, net, kernel=kernel)
        t0 = perf_counter()
        scores = evaluator.evaluate_batch(candidates)
        best = min(best, perf_counter() - t0)
    return best, scores


def _time_full_sequential(graph, net, candidates) -> tuple[float, list[float]]:
    best = float("inf")
    scores: list[float] = []
    for _ in range(ROUNDS):
        t0 = perf_counter()
        scores = [simulate_mapping(graph, net, c).makespan for c in candidates]
        best = min(best, perf_counter() - t0)
    return best, scores


def scores_checksum(scores: list[float]) -> str:
    """Digest of the whole score list — order-sensitive, repr-exact."""
    return hashlib.sha256("\n".join(repr(s) for s in scores).encode()).hexdigest()


def makespan_checksum(report: dict[str, dict]) -> str:
    """Same digest as ``bench_scheduler_cost.makespan_checksum``."""
    lines = sorted(f"{algo}={report[algo]['makespan']!r}" for algo in report)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_batch_eval_speedup(workload, population):
    graph, net = workload.graph, workload.net
    array_wall, array_scores = _time_batch_array(graph, net, population)
    full_wall, full_scores = _time_full_sequential(graph, net, population)

    # The core claim: the scorer buys speed, never different schedules.
    assert array_scores == full_scores
    speedup = full_wall / array_wall if array_wall else 0.0
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch scorer only {speedup:.2f}x vs full re-simulation "
        f"(floor {SPEEDUP_FLOOR}x) — did the hot loop regress?"
    )

    digest = scores_checksum(array_scores)
    # "makespan" per series keeps the report readable by
    # compare_scheduler_cost.py; the population's best score plays the role.
    _report["batch_array"] = {
        "wall_s": array_wall,
        "makespan": min(array_scores),
        "scores_checksum": digest,
        "speedup_vs_full": speedup,
    }
    _report["full_sequential"] = {
        "wall_s": full_wall,
        "makespan": min(full_scores),
        "scores_checksum": digest,
    }


def test_compiled_kernel_speedup(workload, population):
    """AOT kernel vs reference kernel: bit-identical scores, >=3x faster."""
    from repro.core.kernelreg import compiled_available

    if not compiled_available():
        pytest.skip("repro.core._kernel_c extension not built")
    graph, net = workload.graph, workload.net
    python_wall, python_scores = _time_batch_array(graph, net, population, kernel="python")
    compiled_wall, compiled_scores = _time_batch_array(
        graph, net, population, kernel="compiled"
    )

    # Bit-identity contract: same IEEE-754 operations in the same order.
    assert compiled_scores == python_scores
    assert scores_checksum(compiled_scores) == scores_checksum(python_scores)
    speedup = python_wall / compiled_wall if compiled_wall else 0.0
    assert speedup >= COMPILED_SPEEDUP_FLOOR, (
        f"compiled kernel only {speedup:.2f}x vs pure-Python kernel "
        f"(floor {COMPILED_SPEEDUP_FLOOR}x)"
    )

    digest = scores_checksum(compiled_scores)
    _kernels["python"] = {"wall_s": python_wall, "scores_checksum": digest}
    _kernels["compiled"] = {
        "wall_s": compiled_wall,
        "scores_checksum": digest,
        "speedup_vs_python": speedup,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's benchmark, dump the comparison report."""
    yield
    if not _report:
        return
    out = Path("BENCH_batch_eval.json")
    doc = {
        "algorithms": _report,
        "makespan_checksum": makespan_checksum(_report),
        "population": POPULATION,
        "rounds": ROUNDS,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    if _kernels:
        # Kept outside "algorithms" on purpose: the makespan checksum above
        # must match on toolchain-free runners that never produce this key.
        doc["kernels"] = _kernels
        doc["compiled_speedup_floor"] = COMPILED_SPEEDUP_FLOOR
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"\nwrote batch-eval comparison to {out.resolve()}")
