"""Workload generation for the paper's experiments.

One :class:`WorkloadInstance` is a (task graph, network topology) pair built
with the Section 6 parameters: layered random DAG with U(40, 1000) tasks and
U(1, 1000) costs rescaled to the requested CCR, plus a random WAN whose
switches each host U(4, 16) processors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.network.builders import random_wan
from repro.network.topology import NetworkTopology
from repro.taskgraph.ccr import scale_to_ccr
from repro.taskgraph.generators import random_layered_dag
from repro.taskgraph.graph import TaskGraph
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class WorkloadInstance:
    """One generated experiment instance."""

    graph: TaskGraph
    net: NetworkTopology
    ccr: float
    n_procs: int
    heterogeneous: bool


#: The fixed scheduler-cost benchmark instance parameters.  One definition,
#: two consumers — ``benchmarks/bench_scheduler_cost.py`` (writes the
#: ``BENCH_scheduler_cost.json`` baseline) and ``repro runs compare`` (checks
#: a fresh run against it) — so the workloads can never drift apart.
SCHEDULER_COST_PARAMS = {"ccr": 2.0, "n_procs": 16, "rng": 12345}


def scheduler_cost_workload() -> WorkloadInstance:
    """The fixed workload the scheduler-cost benchmark baseline is built on."""
    return paper_workload(ExperimentConfig.default(), **SCHEDULER_COST_PARAMS)


def scheduler_cost_run(algo: str) -> dict:
    """One instrumented ``schedule()`` of ``algo`` on the scheduler-cost workload.

    Returns ``{"wall_s", "makespan", "phases", "counters"}``: the phases are
    routing, insertion, processor selection and task placement, and the
    counters are the process-wide instruments, reset just before the run.

    - Each call builds a **fresh** workload instance: route tables and probe
      caches live on the topology, so a shared one would make the counters
      depend on which algorithms ran before it.
    - The mapping searches score with the Python kernel, so the counters do
      not depend on whether the C kernel is built: an ``auto`` kernel counts
      a fallback where it is missing, and the C kernel never rebuilds a
      prefix.

    Every counter is then a pure function of the algorithm and the
    workload, which is what lets ``repro runs compare`` check a fresh run
    against the committed ``BENCH_scheduler_cost.json`` on any machine.
    """
    from time import perf_counter

    from repro import obs
    from repro.core import SCHEDULERS

    workload = scheduler_cost_workload()
    kwargs = {"kernel": "python"} if algo in ("annealing", "genetic") else {}
    obs.enable(obs.NullSink())
    obs.reset()
    try:
        t0 = perf_counter()
        schedule = SCHEDULERS[algo](**kwargs).schedule(workload.graph, workload.net)
        wall = perf_counter() - t0
        timings = obs.PROFILER.snapshot()
        counters = obs.METRICS.snapshot()["counters"]
    finally:
        obs.disable()
    phases = ("routing", "insertion", "processor_selection", "task_placement")
    return {
        "wall_s": wall,
        "makespan": schedule.makespan,
        "phases": {p: timings.get(p, {"total": 0.0, "count": 0}) for p in phases},
        "counters": counters,
    }


def paper_workload(
    config: ExperimentConfig,
    ccr: float,
    n_procs: int,
    rng: int | np.random.Generator | None = None,
) -> WorkloadInstance:
    """Build one Section 6 instance for the given CCR and processor count."""
    gen = as_rng(rng)
    n_tasks = int(gen.integers(config.task_range[0], config.task_range[1] + 1))
    graph = random_layered_dag(
        n_tasks,
        gen,
        weight_range=config.cost_range,
        cost_range=config.cost_range,
        density=config.density,
        name=f"paper-{n_tasks}t",
    )
    graph = scale_to_ccr(graph, ccr)
    if config.heterogeneous:
        proc_speed = config.speed_range
        link_speed = config.speed_range
    else:
        proc_speed = 1.0
        link_speed = 1.0
    if config.topology == "random_wan":
        net = random_wan(
            n_procs,
            gen,
            proc_speed=proc_speed,
            link_speed=link_speed,
        )
    else:
        from repro.network.fabrics import fabric_for_procs

        # Datacenter fabric sized for the sweep point's exact processor
        # count; it routes through the same flat BFS memo as the random WAN.
        net = fabric_for_procs(
            config.topology,
            n_procs,
            gen,
            proc_speed=proc_speed,
            link_speed=link_speed,
        )
    return WorkloadInstance(
        graph=graph,
        net=net,
        ccr=ccr,
        n_procs=n_procs,
        heterogeneous=config.heterogeneous,
    )
