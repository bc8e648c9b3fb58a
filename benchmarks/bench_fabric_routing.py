"""Fabric routing cost: one BA schedule on a 1k-processor leaf-spine.

Every topology, the datacenter fabrics included, gets its minimal routes
from one flat :func:`~repro.network.routing.bfs_route` memo
(:meth:`~repro.network.topology.NetworkTopology.route_table`), filled
lazily, one ``(src, dst)`` entry per processor pair first routed.  This
module times a BA schedule on the fixed 1024-processor leaf-spine workload
and records how many memo entries it fills (``route_table_entries``)
against the full ordered-pair cross product (``cross_product_entries``),
asserting strictly fewer.

A run writes ``BENCH_fabric_routing.json``; CI compares it against
the committed baseline with ``benchmarks/compare_scheduler_cost.py`` (the
report shares its layout), so a makespan drift fails the build, and checks
the entry counts exactly.
"""

import hashlib
import json
from pathlib import Path
from time import perf_counter

import pytest

from repro import obs
from repro.core import SCHEDULERS
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import paper_workload

#: The fixed 1k-processor leaf-spine bench instance (64 leaves x 16 hosts).
FABRIC_ROUTING_PARAMS = {"ccr": 2.0, "n_procs": 1024, "rng": 4242}

_report: dict[str, dict] = {}
_routing: dict[str, int] = {}


def _workload():
    config = ExperimentConfig.default().with_(topology="leaf_spine")
    return paper_workload(config, **FABRIC_ROUTING_PARAMS)


@pytest.fixture(scope="module")
def workload():
    return _workload()


def test_ba_on_leaf_spine(benchmark, workload):
    result = benchmark(
        lambda: SCHEDULERS["ba"]().schedule(workload.graph, workload.net)
    )
    assert result.makespan > 0
    # Counters come from a fresh workload so repeated benchmark rounds (a
    # warm route memo) cannot make the numbers process-history-dependent.
    fresh = _workload()
    obs.enable(obs.NullSink())
    obs.reset()
    try:
        t0 = perf_counter()
        schedule = SCHEDULERS["ba"]().schedule(fresh.graph, fresh.net)
        wall = perf_counter() - t0
        counters = obs.METRICS.snapshot()["counters"]
    finally:
        obs.disable()
    n_procs = len(fresh.net.processors())
    entries = len(fresh.net.route_table())
    cross = n_procs * (n_procs - 1)
    # The laziness criterion: one memo entry per pair routed, strictly
    # fewer than the full (src, dst) cross product.
    assert 0 < entries < cross
    assert counters.get("routing.bfs_routes", 0) == entries
    _report["ba"] = {
        "makespan": schedule.makespan,
        "route_table_hits": counters.get("routing.table_hits", 0),
        "wall_s": wall,
    }
    _routing.update(
        {"route_table_entries": entries, "cross_product_entries": cross}
    )


def makespan_checksum(report: dict[str, dict]) -> str:
    """Same digest as ``bench_scheduler_cost.makespan_checksum``.

    (Duplicated rather than imported — ``benchmarks`` is not a package.)
    """
    lines = sorted(f"{algo}={report[algo]['makespan']!r}" for algo in report)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    """After the module's benchmark, dump the instrumented run."""
    yield
    if not _report:
        return
    out = Path("BENCH_fabric_routing.json")
    out.write_text(
        json.dumps(
            {
                "algorithms": _report,
                "makespan_checksum": makespan_checksum(_report),
                "params": FABRIC_ROUTING_PARAMS,
                "routing": _routing,
            },
            indent=1,
            sort_keys=True,
        )
    )
    print(f"\nwrote fabric-routing cost report to {out.resolve()}")
