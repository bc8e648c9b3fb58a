"""Simulated-annealing mapping search under the contention model.

The paper's introduction cites simulated annealing [6] among the scheduling
families its heuristics compete with.  This scheduler closes that loop: it
searches over task->processor mappings, scoring every candidate with the
*real* contention model (BFS routing + basic insertion, as in BA) through
:class:`~repro.core.batch.BatchMappingEvaluator`, which is bit-identical to
:func:`repro.core.mapping.simulate_mapping`, so its result is directly
comparable with BA/OIHSA/BBSA makespans.

It is orders of magnitude slower than the list schedulers — that is the
point: it estimates how much headroom the one-pass heuristics leave on the
table.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ba import BAScheduler
from repro.core.batch import BatchMappingEvaluator
from repro.core.kernelreg import KERNEL_CHOICES
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.topology import NetworkTopology
from repro.network.validate import validate_topology
from repro.obs import capture_stats, span
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.validate import validate_graph
from repro.utils.rng import as_rng


class AnnealingScheduler:
    """Search task placements by simulated annealing.

    Parameters
    ----------
    iterations:
        Number of neighbour evaluations (each one contention-model score).
    start_temp_factor:
        Initial temperature as a fraction of the seed makespan.
    cooling:
        Geometric cooling factor per iteration.
    seed_with_ba:
        Start from BA's mapping (default) instead of a random one.
    kernel:
        Which implementation runs the scoring hot loop: ``"auto"``
        (default: the AOT-compiled extension when built, pure Python
        otherwise), ``"python"``, or ``"compiled"`` (raise when the
        extension is absent).  Kernels are bit-identical (see
        :mod:`repro.core.kernelreg`), so this only changes wall time.
    """

    name = "annealing"

    def __init__(
        self,
        *,
        iterations: int = 300,
        start_temp_factor: float = 0.1,
        cooling: float = 0.99,
        seed_with_ba: bool = True,
        comm: CommModel = CUT_THROUGH,
        rng: int | np.random.Generator | None = 0,
        kernel: str = "auto",
    ) -> None:
        if iterations < 1:
            raise SchedulingError(f"need at least one iteration, got {iterations}")
        if not 0 < cooling <= 1:
            raise SchedulingError(f"cooling must be in (0, 1], got {cooling}")
        if kernel not in KERNEL_CHOICES:
            raise SchedulingError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}"
            )
        self.iterations = iterations
        self.start_temp_factor = start_temp_factor
        self.cooling = cooling
        self.seed_with_ba = seed_with_ba
        self.comm = comm
        self.rng = rng
        self.kernel = kernel

    def schedule(self, graph: TaskGraph, net: NetworkTopology) -> Schedule:
        validate_graph(graph)
        validate_topology(net)
        capture = capture_stats()
        gen = as_rng(self.rng)
        procs = [p.vid for p in net.processors()]
        tasks = [t.tid for t in graph.tasks()]
        # Draw sources built once per schedule(): ``gen.choice`` draws
        # ``integers(0, len)`` from an array as from a list, so the trajectory
        # is unchanged.  ``others`` fills per old processor on first use, so
        # a large network builds only the arrays its moves need.
        task_arr = np.array(tasks)
        others: dict[int, np.ndarray] = {}

        if self.seed_with_ba:
            seed_schedule = BAScheduler(comm=self.comm).schedule(graph, net)
            mapping = {
                tid: pl.processor for tid, pl in seed_schedule.placements.items()
            }
        else:
            mapping = {tid: int(gen.choice(procs)) for tid in tasks}

        evaluator = BatchMappingEvaluator(
            graph, net, comm=self.comm, algorithm=self.name, kernel=self.kernel
        )
        best_mapping = dict(mapping)
        with span("mapping.score"):
            best_cost = current_cost = evaluator.evaluate(mapping)
        temp = max(best_cost * self.start_temp_factor, 1e-9)

        for _ in range(self.iterations):
            tid = int(gen.choice(task_arr))
            old_proc = mapping[tid]
            choices = others.get(old_proc)
            if choices is None:
                choices = others[old_proc] = np.array(
                    [p for p in procs if p != old_proc]
                )
            if not len(choices):
                break
            mapping[tid] = int(gen.choice(choices))
            with span("mapping.score"):
                cand_cost = evaluator.evaluate(mapping)
            delta = cand_cost - current_cost
            if delta <= 0 or gen.random() < math.exp(-delta / temp):
                current_cost = cand_cost
                if current_cost < best_cost:
                    best_cost = current_cost
                    best_mapping = dict(mapping)
            else:
                mapping[tid] = old_proc
            temp *= self.cooling

        result = evaluator.schedule(best_mapping)
        if capture is not None:
            # What this whole search did, including every candidate evaluation.
            result.stats = capture.finish()
        return result
