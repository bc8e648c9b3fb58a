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
from repro.network.fabrics import fabric_for_procs
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
