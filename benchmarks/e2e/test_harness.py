"""Self-test of the end-to-end benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs at the tiny scale: the checks are about the harness
(metrics printed, traces complete and honest, wrappers restored), not about
the numbers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import repro.experiments.workloads as gen_mod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.exceptions import GraphError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def _run(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, "--scale", "tiny", "--seed", "5", "--seconds", "0.5",
         "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_workloads_match_the_declaration():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, name, trace):
    proc = _run(tmp_path, "--workload", name, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [ln.split() for ln in lines[:-1] if ln.split()[1:2] == [metric["name"]]]
        assert printed and printed[0][-1] == metric["unit"], metric["name"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _trace(name: str, tmp_path: Path):
    workload = workloads.get(name, "tiny")
    ctx = workloads.RunContext(expected=None, scratch=tmp_path)
    tracer = tracing.Tracer()
    return workload, ctx, tracer, workloads.trace_run(workload, 5, ctx, tracer)


@pytest.mark.parametrize("name", NAMES)
def test_traced_makespans_equal_untraced(name, tmp_path):
    workload = workloads.get(name, "tiny")
    ctx = workloads.RunContext(expected=None, scratch=tmp_path)
    item = workload.trace_plan(5)[0]
    plain = workload.run_round(item, ctx, serial=True)
    with tracing.Tracer().installed():
        traced = workload.run_round(item, ctx, serial=True)
    assert plain.failed == traced.failed == 0
    assert traced.makespans == plain.makespans  # float ==: bit-equal


#: Layers that must do work on each workload, per algorithm; a layer stuck
#: at zero calls means a wrapper was bypassed.
_CONTENTION = ("linksched.calls", "network.routing.calls", "core.select.calls",
               "procsched.calls")
_SEARCH = ("core.batch.candidates", "core.kernel.calls", "network.routing.calls",
           "core.seed_s", "core.batch.build_s", "core.batch.materialize_s")
EXPECTED_LAYERS = {
    "wan-300": {a: _CONTENTION for a in ("ba", "oihsa", "bbsa")},
    "figs-default": {a: _CONTENTION for a in ("ba", "oihsa", "bbsa")},
    "search-120": {"ba": _CONTENTION, "annealing": _SEARCH, "genetic": _SEARCH},
}


@pytest.mark.parametrize("name", NAMES)
def test_layer_table_is_complete_and_sums_to_wall(name, tmp_path):
    originals = {spec: tracing._resolve(spec)[2] for _label, spec in tracing.targets()}
    workload, _ctx, tracer, result = _trace(name, tmp_path)
    assert result.failed == 0
    for algo in workload.algorithms:
        total, wall = result.sums[algo]
        assert wall > 0 and total == pytest.approx(wall, rel=1e-9)
        for layer in EXPECTED_LAYERS[name][algo]:
            assert result.metrics[f"{layer}.{algo}"] > 0, (algo, layer)
        assert result.metrics[f"core.validate.self_s.{algo}"] > 0
    assert result.metrics["taskgraph.gen_s"] > 0 and result.metrics["network.build_s"] > 0
    if name == "figs-default":
        assert result.metrics["experiments.cache.put_calls"] > 0
        assert result.metrics["experiments.parallel.busy_s"] > 0
    # The wrapped attributes are the original objects again.
    for spec, raw in originals.items():
        assert tracing._resolve(spec)[2] is raw, spec
    # The spans file parses and every parent id resolves.
    path = tmp_path / "spans.json"
    tracer.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    assert events and all(e["args"]["parent"] in ids for e in events if e["args"]["parent"] is not None)


def test_wrappers_restored_after_an_error():
    originals = {spec: tracing._resolve(spec)[2] for _label, spec in tracing.targets()}
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    for spec, raw in originals.items():
        assert tracing._resolve(spec)[2] is raw, spec


def test_first_draws_predict_the_generated_instances():
    # Two to four tasks: a one-layer (edgeless) DAG is common there.
    config = workloads.ExperimentConfig(task_range=(2, 4))
    layers = []
    for ss in np.random.SeedSequence(11).spawn(40):
        n_tasks, n_layers = workloads.first_draws(config, ss)
        layers.append(n_layers)
        rng = np.random.default_rng(ss)
        if n_layers == 1:
            with pytest.raises(GraphError):
                gen_mod.paper_workload(config, 1.0, 4, rng)
        else:
            assert gen_mod.paper_workload(config, 1.0, 4, rng).graph.num_tasks == n_tasks
    assert 1 in layers and max(layers) > 1


def test_expected_covers_every_pool_item():
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    assert expected["seed"] == workloads.DEFAULT_SEED
    for name, workload in workloads.WORKLOADS.items():
        keys = [k for item in workload.plan(workloads.DEFAULT_SEED) for k in workload.keys(item)]
        assert sorted(expected["makespans"][name]) == sorted(keys)
        assert all(len(v) == len(workload.algorithms) for v in expected["makespans"][name].values())


@pytest.mark.parametrize("worse_by, verdict", [(0.0, "no worse"), (0.5, "regressed")])
def test_compare_pairs_repeats_of_one_seed(tmp_path, capsys, worse_by, verdict):
    import compare

    for side, rev, factor in (("base", "a", 0.0), ("change", "b", worse_by)):
        directory = tmp_path / side
        directory.mkdir()
        for run in range(10):
            metrics = {
                m["name"]: {"value": (1.0 + run / 1000)
                            * (1 - factor if m["better"] == "higher" else 1 + factor)}
                for m in SPEC["end_to_end"]
            }
            doc = {"workload": "w", "mode": "plain", "run": run, "failed": 0,
                   "provenance": {"seed": 7, "git_rev": rev}, "metrics": metrics}
            (directory / f"w-plain-seed7-run{run}.json").write_text(json.dumps(doc))
    status = compare.main([str(tmp_path / "base"), str(tmp_path / "change")])
    rows = [ln for ln in capsys.readouterr().out.splitlines() if "10 pairs" in ln]
    assert len(rows) == len(SPEC["end_to_end"])
    assert all(f" {verdict} (" in ln for ln in rows)
    assert status == (verdict == "regressed")


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_sampler_covers_this_process_and_forked_children():
    import calibration

    sampler = calibration.SpeedSampler()
    try:
        with sampler.span() as here:
            _busy(0.3)
        # The sweep's pool forks its workers; only they are sampled.
        with sampler.span(children=True) as pooled:
            worker = multiprocessing.get_context("fork").Process(target=_busy, args=(0.3,))
            worker.start()
            worker.join(timeout=30)
        with sampler.span() as short:
            pass
    finally:
        sampler.close()
    assert worker.exitcode == 0
    assert here.samples >= 3 and pooled.samples >= 3 and short.samples == 0
    assert all(0 < s.share < 2 for s in (here, pooled, short))


def test_fails_without_the_library(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
