"""Batched array-native candidate scoring for the mapping searches.

:func:`~repro.core.mapping.simulate_mapping` releases tasks in a fixed
priority-list order, and every booking decision at order position ``p``
depends only on the placements and link queues produced by positions
``< p``.  Two mappings that agree on every task before the first position
where they differ therefore share a bit-identical simulation prefix, and
the mapping searches (annealing, genetic) score long streams of such
neighbours.  :class:`BatchMappingEvaluator` is the one scorer they use: it
rewinds to the divergence point and re-simulates only the suffix, on a flat
column store driven through a swappable **kernel**
(:mod:`repro.core._kernel`, selected by :mod:`repro.core.kernelreg`):

- Tasks are **dense order positions**, processors dense indices; a candidate
  is a flat ``list[int]`` (``cand[pos] = processor index``), so the
  candidate itself is the placement lookup table — no per-candidate dicts.
- ``weight / speed`` divisions are precomputed per (position, processor)
  into one flat row-major table; in-edges are CSR ``(source position,
  cost)`` arrays fixed at construction.
- Routes resolve once per processor pair into a **route plan** installed
  into the kernel, so the inner loop touches no topology objects.  Plans
  stay lazy: the kernel reports the first unresolved pair it hits, this
  evaluator resolves the route (:func:`~repro.network.routing.bfs_route`)
  and retries.
- A booking is ``schedule_edge_basic``'s gap-search arithmetic verbatim
  (the bit-identity contract) followed by two column inserts and a journal
  append; a rewind undoes journal entries in bulk, or, when the shared
  prefix is short, clears the columns and rebuilds it from position 0
  (``PyKernel``; re-simulation is deterministic, so both routes give the
  same columns).  The loop itself lives in the kernel: pure Python by
  default, or the AOT-built C extension when present
  (``kernel={auto,python,compiled}``; both are bit-identical).

**Batch semantics.**  :meth:`evaluate_batch` scores N candidates as one
batch forking from a shared prefix checkpoint.  Because every candidate's
score is a pure function of its mapping (simulation state is rewound, never
leaked between candidates), the batch may be evaluated in any order;
evaluating in **lexicographic dense-genome order** maximizes consecutive
shared prefixes (it is a depth-first walk of the candidates' prefix trie),
and results are returned in the caller's order.  A score cache keyed by the
dense genome short-circuits repeats (a genetic elite re-scored every
generation, an annealing move retried), counted as
``mapping.identical_skips``.

Counters (all under ``OBS.on``, accumulated per candidate — the scorer
pays no per-booking instrumentation): ``mapping.evaluations``,
``mapping.prefix_hits``, ``mapping.suffix_tasks_resimulated`` (order
positions from the divergence on), ``mapping.shared_prefix_tasks`` (order
positions shared with the last simulated genome),
``mapping.prefix_tasks_rebuilt`` (shared positions the kernel re-simulated
instead of unwinding to them; with ``suffix_tasks_resimulated`` it sums to
the positions simulated), ``mapping.batch_evaluations`` /
``mapping.batch_candidates`` (every scoring request: one increment per
:meth:`evaluate_batch` with its population size, and one batch of size 1
per single-candidate :meth:`evaluate` — so ``batch_candidates /
batch_evaluations`` is the true mean batch size across a search) and
``mapping.identical_skips``.

Scoring is bit-identical to ``simulate_mapping`` — same divisions, same gap
arithmetic, same ``max`` reductions — proven slot-by-slot by
``tests/test_batch_equivalence.py``.  Materializing a full
:class:`~repro.core.schedule.Schedule` (:meth:`BatchMappingEvaluator.schedule`)
delegates to ``simulate_mapping``: the columns carry no edge identities or
routes, and the winner is scheduled once per search.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core._kernel import (
    KernelProtocol,
    LinkStateView,
    ProcStateView,
)
from repro.core.kernelreg import KernelInfo, resolve_kernel
from repro.core.mapping import simulate_mapping
from repro.core.schedule import Schedule
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import CUT_THROUGH, CommModel
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology
from repro.obs import OBS
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.priorities import priority_list
from repro.types import TaskId, VertexId

#: Score-cache keys: packed bytes for <=256 processors, tuples beyond.
_CacheKey = bytes | tuple[int, ...]

#: Distinct candidates remembered before the score cache resets.  Search
#: runs see a few hundred candidates; the cap only guards unbounded streams.
_CACHE_LIMIT = 1 << 16


class BatchMappingEvaluator:
    """Score task->processor mappings on flat columns, alone or in batches.

    Construction fixes the graph, network, communication model and task
    order (defaulting to the bottom-level priority list, like
    ``simulate_mapping``), and resolves the scoring kernel
    (``kernel={auto,python,compiled}``; see :mod:`repro.core.kernelreg`).
    :meth:`evaluate` scores one candidate, :meth:`evaluate_batch` a
    population, :meth:`schedule` materializes the chosen mapping through
    ``simulate_mapping``.  The evaluator owns live column state shared
    across calls, so it must not be used concurrently.

    Per-candidate validation is lazy: a mapping that misses a task or maps
    one to a non-processor raises when first converted; extra keys for
    tasks outside the graph are ignored.
    """

    def __init__(
        self,
        graph: TaskGraph,
        net: NetworkTopology,
        *,
        order: Sequence[TaskId] | None = None,
        comm: CommModel = CUT_THROUGH,
        algorithm: str = "mapping",
        kernel: str = "auto",
    ) -> None:
        task_order = list(order) if order is not None else priority_list(graph)
        if sorted(task_order) != sorted(t.tid for t in graph.tasks()):
            raise SchedulingError("order is not a permutation of the graph's tasks")
        self._graph = graph
        self._net = net
        self._comm = comm
        self._algorithm = algorithm
        self._order = task_order
        procs = list(net.processors())
        self._proc_vids: list[VertexId] = [p.vid for p in procs]
        self._vid_to_pidx: dict[VertexId, int] = {
            p.vid: i for i, p in enumerate(procs)
        }
        n_procs = len(procs)
        self._n_procs = n_procs
        n = len(task_order)
        self._n = n
        pos_of = {tid: i for i, tid in enumerate(task_order)}
        # Static per-position facts.  ``exec_flat[pos * P + pidx]`` keeps
        # ``simulate_mapping``'s ``weight / speed`` division (never rewritten
        # as a multiplication by the inverse — that rounds differently).
        # In-edges are CSR arrays: position ``pos``'s predecessors (sorted by
        # source task id) live at ``edge_src/edge_cost[edge_off[pos] :
        # edge_off[pos + 1]]``.
        exec_flat: list[float] = []
        edge_src: list[int] = []
        edge_cost: list[float] = []
        edge_off: list[int] = [0]
        for tid in task_order:
            weight = graph.task(tid).weight
            exec_flat.extend(weight / p.speed for p in procs)
            for e in sorted(graph.in_edges(tid), key=lambda e: e.src):
                if e.cost < 0:
                    raise SchedulingError(f"negative communication cost {e.cost}")
                edge_src.append(pos_of[e.src])
                edge_cost.append(e.cost)
            edge_off.append(len(edge_src))
        factory, info = resolve_kernel(kernel)
        self.kernel_info: KernelInfo = info
        #: the active kernel variant ("python" or "compiled"), for
        #: ``repro profile`` / ``--stats`` / ledger fingerprints
        self.kernel: str = info.active
        self._k: KernelProtocol = factory(
            n,
            n_procs,
            exec_flat,
            edge_src,
            edge_cost,
            edge_off,
            comm.mode == "cut-through",
            comm.hop_delay,
        )
        #: reusable mapping->dense conversion buffer
        self._buf: list[int] = [0] * n
        self._scores: dict[_CacheKey, float] = {}
        self._pack_keys = n_procs <= 256

    # -- internals -----------------------------------------------------------

    def _resolve_plan(self, pair: int) -> None:
        """Resolve (once) a processor pair's route and install it."""
        src_pidx, dst_pidx = divmod(pair, self._n_procs)
        route = bfs_route(
            self._net, self._proc_vids[src_pidx], self._proc_vids[dst_pidx]
        )
        lids = [link.lid for link in route]
        speeds = [link.speed for link in route]
        self._k.set_plan(pair, lids, speeds)

    def dense(self, mapping: Mapping[TaskId, VertexId]) -> list[int]:
        """``mapping`` as a dense genome: processor index per order position."""
        vid_to_pidx = self._vid_to_pidx
        try:
            return [vid_to_pidx[mapping[tid]] for tid in self._order]
        except KeyError:
            for tid in self._order:
                if tid not in mapping:
                    raise SchedulingError(f"mapping misses tasks [{tid}]") from None
                if mapping[tid] not in vid_to_pidx:
                    raise SchedulingError(
                        f"task {tid} mapped to non-processor {mapping[tid]}"
                    ) from None
            raise  # pragma: no cover - unreachable: one branch above fired

    # -- public API ----------------------------------------------------------

    def evaluate_dense(self, cand: list[int]) -> float:
        """Makespan of a dense genome — bit-identical to ``simulate_mapping``.

        ``cand`` must hold one processor index in ``[0, processors)`` per
        order position; anything else raises
        :class:`~repro.exceptions.SchedulingError` before the kernel sees it.
        The kernel rewinds the live columns to the longest prefix shared
        with the previously evaluated genome (or rebuilds a short one from
        position 0) and re-simulates the rest.  Previously seen genomes
        return their cached score without touching the columns at all.  A
        kernel stop on an unresolved route plan resolves the route here and
        retries; the retry resumes after the already-simulated prefix, so
        the counters below still reflect the first call's true divergence
        point and resume position.
        """
        n = self._n
        if len(cand) != n:
            raise SchedulingError(
                f"dense genome has {len(cand)} entries, expected {n}"
            )
        if n and not 0 <= min(cand) <= max(cand) < self._n_procs:
            raise SchedulingError(
                f"dense genome entries must lie in [0, {self._n_procs}), "
                f"got [{min(cand)}, {max(cand)}]"
            )
        key: _CacheKey = bytes(cand) if self._pack_keys else tuple(cand)
        scores = self._scores
        hit = scores.get(key)
        if hit is not None:
            if OBS.on:
                OBS.metrics.counter("mapping.evaluations").inc()
                OBS.metrics.counter("mapping.identical_skips").inc()
            return hit
        span, divergence, resumed, missing = self._k.evaluate(cand)
        while missing >= 0:
            self._resolve_plan(missing)
            span, _div, _resumed, missing = self._k.evaluate(cand)
        if OBS.on:
            metrics = OBS.metrics
            metrics.counter("mapping.evaluations").inc()
            if divergence:
                metrics.counter("mapping.prefix_hits").inc()
                metrics.counter("mapping.shared_prefix_tasks").inc(divergence)
            if divergence > resumed:
                metrics.counter("mapping.prefix_tasks_rebuilt").inc(
                    divergence - resumed
                )
            resimulated = n - divergence
            if resimulated:
                metrics.counter("mapping.suffix_tasks_resimulated").inc(resimulated)
        if len(scores) >= _CACHE_LIMIT:
            scores.clear()
        scores[key] = span
        return span

    def evaluate(self, mapping: Mapping[TaskId, VertexId]) -> float:
        """Makespan of one candidate mapping (see :meth:`evaluate_dense`).

        Counted as a batch of size 1 (``mapping.batch_evaluations`` /
        ``mapping.batch_candidates``), so single-candidate searches like
        annealing report a truthful mean batch size instead of 0.
        """
        if OBS.on:
            OBS.metrics.counter("mapping.batch_evaluations").inc()
            OBS.metrics.counter("mapping.batch_candidates").inc()
        buf = self._buf
        vid_to_pidx = self._vid_to_pidx
        order = self._order
        try:
            for i in range(self._n):
                buf[i] = vid_to_pidx[mapping[order[i]]]
        except KeyError:
            self.dense(mapping)  # raises with the precise diagnosis
            raise  # pragma: no cover - unreachable: dense() always raises
        return self.evaluate_dense(buf)

    def evaluate_batch(
        self, mappings: Sequence[Mapping[TaskId, VertexId]]
    ) -> list[float]:
        """Score a whole candidate population; results in caller order.

        The batch forks from the live shared-prefix checkpoint: candidates
        are evaluated in lexicographic dense-genome order (a depth-first
        prefix-trie walk, so consecutive candidates share the longest
        possible checkpoints), and each score is a pure function of its
        mapping, so the reordering is unobservable in the results.
        """
        genomes = [self.dense(m) for m in mappings]
        if OBS.on:
            OBS.metrics.counter("mapping.batch_evaluations").inc()
            OBS.metrics.counter("mapping.batch_candidates").inc(len(genomes))
        by_prefix = sorted(range(len(genomes)), key=genomes.__getitem__)
        out = [0.0] * len(genomes)
        for k in by_prefix:
            out[k] = self.evaluate_dense(genomes[k])
        return out

    def schedule(self, mapping: Mapping[TaskId, VertexId]) -> Schedule:
        """Full :class:`~repro.core.schedule.Schedule` for ``mapping``.

        Delegates to :func:`~repro.core.mapping.simulate_mapping` — the
        columns store no edge identities or routes, and the search
        materializes exactly one winner.  Unlike the scoring path this
        validates the mapping eagerly, like ``simulate_mapping`` itself.
        """
        return simulate_mapping(
            self._graph,
            self._net,
            mapping,
            order=self._order,
            comm=self._comm,
            algorithm=self._algorithm,
        )

    # -- introspection (differential tests) ----------------------------------

    @property
    def link_state(self) -> LinkStateView:
        """The live link columns (read-only use: differential tests)."""
        return self._k.link_state

    @property
    def proc_state(self) -> ProcStateView:
        """The live processor column (read-only use: differential tests)."""
        return self._k.proc_state
