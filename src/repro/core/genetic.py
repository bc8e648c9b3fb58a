"""Genetic-algorithm mapping search under the contention model.

The second metaheuristic family the paper's introduction cites [5].  A
population of task->processor mappings evolves by tournament selection,
uniform crossover and point mutation; fitness is the *contention-model*
makespan from :func:`repro.core.mapping.simulate_mapping`, so results are
directly comparable with BA/OIHSA/BBSA.  Each generation is scored as one
batch by :class:`~repro.core.batch.BatchMappingEvaluator`, bit-identical to
``simulate_mapping`` per candidate.
"""

from __future__ import annotations

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


class GeneticScheduler:
    """Evolve task placements; fitness = contention-model makespan.

    ``kernel`` picks the scoring hot loop's implementation (``"auto"``,
    ``"python"`` or ``"compiled"``, as for
    :class:`~repro.core.annealing.AnnealingScheduler`); kernels are
    bit-identical, so it only changes wall time.
    """

    name = "genetic"

    def __init__(
        self,
        *,
        population: int = 16,
        generations: int = 20,
        mutation_rate: float = 0.05,
        elite: int = 2,
        seed_with_ba: bool = True,
        comm: CommModel = CUT_THROUGH,
        rng: int | np.random.Generator | None = 0,
        kernel: str = "auto",
    ) -> None:
        if population < 2:
            raise SchedulingError(f"population must be >= 2, got {population}")
        if generations < 1:
            raise SchedulingError(f"generations must be >= 1, got {generations}")
        if not 0 <= mutation_rate <= 1:
            raise SchedulingError(f"mutation rate must be in [0, 1], got {mutation_rate}")
        if not 0 <= elite < population:
            raise SchedulingError(f"elite must be in [0, population), got {elite}")
        if kernel not in KERNEL_CHOICES:
            raise SchedulingError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}"
            )
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.elite = elite
        self.seed_with_ba = seed_with_ba
        self.comm = comm
        self.rng = rng
        self.kernel = kernel

    def schedule(self, graph: TaskGraph, net: NetworkTopology) -> Schedule:
        validate_graph(graph)
        validate_topology(net)
        capture = capture_stats()
        gen = as_rng(self.rng)
        procs = np.array([p.vid for p in net.processors()])
        tasks = [t.tid for t in graph.tasks()]
        n = len(tasks)

        def random_genome() -> np.ndarray:
            return gen.choice(procs, size=n)

        def to_mapping(genome: np.ndarray) -> dict[int, int]:
            return dict(zip(tasks, genome.tolist()))

        evaluator = BatchMappingEvaluator(
            graph, net, comm=self.comm, algorithm=self.name, kernel=self.kernel
        )

        def score_pool(pool: list[np.ndarray]) -> np.ndarray:
            # One batch per generation, forking from the shared prefix
            # checkpoint; scores come back in pool order.
            with span("mapping.score"):
                return np.array(
                    evaluator.evaluate_batch([to_mapping(g) for g in pool])
                )

        pool = [random_genome() for _ in range(self.population)]
        if self.seed_with_ba:
            ba = BAScheduler(comm=self.comm).schedule(graph, net)
            pool[0] = np.array([ba.placements[tid].processor for tid in tasks])
        scores = score_pool(pool)

        for _ in range(self.generations):
            order = np.argsort(scores)
            pool = [pool[i] for i in order]
            scores = scores[order]
            next_pool = pool[: self.elite]
            while len(next_pool) < self.population:
                # Tournament selection of two parents.
                a, b = gen.integers(0, self.population, size=2)
                p1 = pool[min(a, b)]
                a, b = gen.integers(0, self.population, size=2)
                p2 = pool[min(a, b)]
                mask = gen.random(n) < 0.5
                child = np.where(mask, p1, p2)
                mut = gen.random(n) < self.mutation_rate
                if mut.any():
                    child = child.copy()
                    child[mut] = gen.choice(procs, size=int(mut.sum()))
                next_pool.append(child)
            pool = next_pool
            scores = score_pool(pool)

        best = pool[int(np.argmin(scores))]
        result = evaluator.schedule(to_mapping(best))
        if capture is not None:
            # What this whole search did, including every candidate evaluation.
            result.stats = capture.finish()
        return result
