"""Per-layer cost accounting taken from outside the library.

The tracer replaces the module and class attributes the schedulers call
through (``repro.core.ba.bfs_route``, ``ProcessorState.place``, ...) with
timing wrappers, keeps a span stack, and charges each span its *self* time:
its duration minus the time of the spans nested inside it.  Self times of
all spans inside one ``schedule()`` call therefore add up to that call's
wall time, and the remainder the wrappers do not cover is reported as
``core.other_s.<algo>``.

Nothing in ``src/`` is modified: the wrappers are installed by
:meth:`Tracer.installed` and the original objects are put back when it
exits, even on error.  Spans are kept in memory (name, start, end, parent,
algorithm, instance) and written once, as Chrome-trace JSON, by
:meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Algorithms the per-layer table has rows for, in display order.
ALGORITHMS = ("ba", "oihsa", "bbsa", "annealing", "genetic")
#: Algorithms that score candidate mappings through ``core.batch``.
SEARCH_ALGORITHMS = ("annealing", "genetic")

#: ``(label, "module:attribute path")`` of every wrapped boundary.  A label
#: is the layer a call is charged to; ``core.batch.dense`` and
#: ``network.routing.plan`` fold into ``core.batch`` and ``network.routing``
#: but are counted apart to derive the score-cache hit ratio.
TARGETS: tuple[tuple[str, str], ...] = (
    ("schedule", "repro.core.base:ContentionScheduler.schedule"),
    ("schedule", "repro.core.annealing:AnnealingScheduler.schedule"),
    ("schedule", "repro.core.genetic:GeneticScheduler.schedule"),
    ("linksched", "repro.core.ba:schedule_edge_basic"),
    ("linksched", "repro.core.oihsa:schedule_edge_optimal"),
    ("linksched", "repro.linksched.bandwidth:BandwidthLinkState.schedule_edge"),
    ("network.routing", "repro.core.ba:bfs_route"),
    ("network.routing", "repro.core.oihsa:_dijkstra_indexed"),
    ("network.routing", "repro.core.bbsa:_dijkstra_fluid"),
    ("network.routing.plan", "repro.core.batch:bfs_route"),
    ("core.select", "repro.core.ba:BAScheduler._select_processor"),
    ("core.select", "repro.core.base:ContentionScheduler._mls_select_processor"),
    ("procsched", "repro.procsched.state:ProcessorState.place"),
    ("core.validate", "repro.core.validate:validate_schedule"),
    ("core.validate", "repro.experiments.runner:validate_schedule"),
    ("core.batch", "repro.core.batch:BatchMappingEvaluator.evaluate"),
    ("core.batch", "repro.core.batch:BatchMappingEvaluator.evaluate_batch"),
    ("core.batch.dense", "repro.core.batch:BatchMappingEvaluator.evaluate_dense"),
    ("core.batch.build", "repro.core.batch:BatchMappingEvaluator.__init__"),
    ("core.batch.materialize", "repro.core.batch:BatchMappingEvaluator.schedule"),
    ("core.kernel", "repro.core._kernel:PyKernel.evaluate"),
    ("taskgraph.gen", "repro.experiments.workloads:random_layered_dag"),
    ("taskgraph.gen", "repro.experiments.workloads:scale_to_ccr"),
    ("network.build", "repro.experiments.workloads:random_wan"),
    ("experiments.cache.get", "repro.experiments.cache:ResultCache.get"),
    ("experiments.cache.put", "repro.experiments.cache:ResultCache.put"),
    ("experiments.unit", "repro.experiments.parallel:run_unit"),
)
#: Wrapped only when the compiled kernel is importable.
COMPILED_TARGET = ("core.kernel", "repro.core._kernel_cwrap:CKernel.evaluate")

#: Layers nested inside ``schedule()``: with ``core.other_s`` they sum to it.
SCHEDULE_LAYERS = (
    "linksched", "network.routing", "core.select", "procsched",
    "core.batch", "core.batch.build", "core.batch.materialize",
    "core.seed", "core.kernel",
)
_FOLD = {"core.batch.dense": "core.batch", "network.routing.plan": "network.routing"}
#: ``Tracer._get`` over every algorithm
ANY: Any = object()
#: Spans kept in memory; call trees starting after this many are counted
#: (``dropped_trees``) but not recorded.
MAX_SPANS = 50_000


class TraceTargetError(RuntimeError):
    """A wrap target no longer exists in the library."""


def _resolve(spec: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of a ``module:a.b`` spec."""
    module_name, _, path = spec.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError) as exc:
        raise TraceTargetError(f"wrap target {spec} is missing: {exc!r}") from None
    return owner, attr, raw


def targets() -> tuple[tuple[str, str], ...]:
    """Every boundary to wrap in this process."""
    from repro.core.kernelreg import compiled_available

    return TARGETS + ((COMPILED_TARGET,) if compiled_available() else ())


def check_targets() -> list[str]:
    """Specs of wrap targets that cannot be resolved (empty when all exist)."""
    missing = []
    for _label, spec in targets():
        try:
            _resolve(spec)
        except TraceTargetError:
            missing.append(spec)
    return missing


class Tracer:
    """Span stack, per-(label, algorithm) self times, and recorded spans."""

    def __init__(self) -> None:
        #: algorithm whose ``schedule()`` is running (None between calls)
        self.algo: str | None = None
        #: instance key spans are tagged with (set by the workload loop)
        self.instance: Any = None
        #: instance keys of the sweep units being run, by unit index
        self.unit_keys: list[str] = []
        #: (label, algo) -> [calls, self seconds]
        self.stats: dict[tuple[str, str | None], list[float]] = {}
        #: algo -> [schedule() calls, summed wall]
        self.walls: dict[str, list[float]] = {}
        #: algo -> [routes returned, summed hops]
        self.hops: dict[str | None, list[int]] = {}
        #: algo -> [booked slots, links with bookings] over returned schedules
        self.depth: dict[str, list[int]] = {}
        #: recorded spans: (id, parent id, label, start, end, algo, instance)
        self.spans: list[tuple] = []
        self.dropped_trees = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._recording = False
        self._t0 = perf_counter()

    # -- span bookkeeping ----------------------------------------------------

    def _call(self, label: str, algo: str | None, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        if not stack:
            self._recording = len(self.spans) < MAX_SPANS
            if not self._recording:
                self.dropped_trees += 1
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else None
        # frame: [seconds spent in child spans, span id]
        frame = [0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            rec = self.stats.get((label, algo))
            if rec is None:
                rec = self.stats[(label, algo)] = [0, 0.0]
            rec[0] += 1
            rec[1] += dur - frame[0]
            if self._recording:
                self.spans.append((span_id, parent, label, start, end, algo, self.instance))
            if label == "schedule":
                wall = self.walls.setdefault(algo, [0, 0.0])
                wall[0] += 1
                wall[1] += dur

    def _wrapper(self, label: str, fn: Callable) -> Callable:
        tracer = self
        if label == "schedule":
            def traced(sched, *args, **kwargs):
                if tracer.algo is not None:
                    # BA seeding a mapping search: charged to the search.
                    return tracer._call("core.seed", tracer.algo, fn, (sched, *args), kwargs)
                tracer.algo = sched.name
                try:
                    result = tracer._call("schedule", sched.name, fn, (sched, *args), kwargs)
                finally:
                    tracer.algo = None
                tracer._record_depth(sched.name, result)
                return result
        elif label == "core.validate":
            def traced(schedule, *args, **kwargs):
                algo = tracer.algo or schedule.algorithm
                return tracer._call(label, algo, fn, (schedule, *args), kwargs)
        elif label.startswith("network.routing"):
            def traced(*args, **kwargs):
                route = tracer._call(label, tracer.algo, fn, args, kwargs)
                rec = tracer.hops.setdefault(tracer.algo, [0, 0])
                rec[0] += 1
                rec[1] += len(route)
                return route
        elif label == "experiments.unit":
            def traced(config, unit, *args, **kwargs):
                keys = tracer.unit_keys
                tracer.instance = keys[unit.index] if unit.index < len(keys) else unit.index
                return tracer._call(label, None, fn, (config, unit, *args), kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer._call(label, tracer.algo, fn, args, kwargs)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _record_depth(self, algo: str, schedule: Any) -> None:
        """Mean link queue depth, read from the returned schedule."""
        if schedule.link_state is not None:
            links = schedule.link_state.used_links()
            slots = sum(len(schedule.link_state.slots(lid)) for lid in links)
        elif schedule.bandwidth_state is not None:
            per_link: dict[int, int] = {}
            for route in schedule.bandwidth_state.routes().values():
                for lid in route:
                    per_link[lid] = per_link.get(lid, 0) + 1
            links, slots = list(per_link), sum(per_link.values())
        else:
            return
        rec = self.depth.setdefault(algo, [0, 0])
        rec[0] += slots
        rec[1] += len(links)

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore."""
        resolved = [(label, *_resolve(spec)) for label, spec in targets()]
        restore: list[tuple[Any, str, Any]] = []
        try:
            for label, owner, attr, raw in resolved:
                if isinstance(raw, staticmethod):
                    wrapped: Any = staticmethod(self._wrapper(label, raw.__func__))
                else:
                    wrapped = self._wrapper(label, raw)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------------

    def _get(self, label: str, algo: str | None = ANY) -> tuple[float, float]:
        """``(calls, self seconds)`` of a label, or of the labels folded into it."""
        calls = seconds = 0.0
        for (lab, alg), (c, s) in self.stats.items():
            if (algo is ANY or alg == algo) and label in (lab, _FOLD.get(lab)):
                calls += c
                seconds += s
        return calls, seconds

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values (0 where a layer did no work)."""
        out: dict[str, float] = {}
        for algo in ALGORITHMS:
            out[f"schedule_s.{algo}"] = self.walls.get(algo, [0, 0.0])[1]
            for layer, calls_key in (
                ("linksched", "linksched.calls"),
                ("network.routing", "network.routing.calls"),
                ("core.select", "core.select.calls"),
                ("procsched", "procsched.calls"),
            ):
                calls, seconds = self._get(layer, algo)
                out[f"{calls_key}.{algo}"] = calls
                out[f"{layer}.self_s.{algo}"] = seconds
            slots, links = self.depth.get(algo, [0, 0])
            out[f"linksched.slots_per_link.{algo}"] = slots / links if links else 0.0
            routes, hops = self.hops.get(algo, [0, 0])
            out[f"network.routing.hops_mean.{algo}"] = hops / routes if routes else 0.0
            out[f"core.validate.self_s.{algo}"] = self._get("core.validate", algo)[1]
            out[f"core.other_s.{algo}"] = self._get("schedule", algo)[1]
            if algo in SEARCH_ALGORITHMS:
                candidates = self._get("core.batch.dense", algo)[0]
                kernel_calls, kernel_s = self._get("core.kernel", algo)
                plan_calls = self._get("network.routing.plan", algo)[0]
                misses = kernel_calls - plan_calls
                out[f"core.batch.self_s.{algo}"] = self._get("core.batch", algo)[1]
                out[f"core.batch.candidates.{algo}"] = candidates
                out[f"core.batch.cache_hit_ratio.{algo}"] = (
                    1.0 - misses / candidates if candidates else 0.0
                )
                out[f"core.batch.build_s.{algo}"] = self._get("core.batch.build", algo)[1]
                out[f"core.batch.materialize_s.{algo}"] = self._get(
                    "core.batch.materialize", algo
                )[1]
                out[f"core.seed_s.{algo}"] = self._get("core.seed", algo)[1]
                out[f"core.kernel.calls.{algo}"] = kernel_calls
                out[f"core.kernel.self_s.{algo}"] = kernel_s
                # candidates the kernel scored, not counting plan-miss retries
                out[f"core.kernel.candidates_per_s.{algo}"] = (
                    misses / kernel_s if kernel_s else 0.0
                )
        out["taskgraph.gen_s"] = self._get("taskgraph.gen")[1]
        out["network.build_s"] = self._get("network.build")[1]
        get_calls, get_s = self._get("experiments.cache.get")
        put_calls, put_s = self._get("experiments.cache.put")
        out["experiments.cache.get_calls"] = get_calls
        out["experiments.cache.get_s"] = get_s
        out["experiments.cache.put_calls"] = put_calls
        out["experiments.cache.put_s"] = put_s
        return out

    def sum_check(self) -> dict[str, tuple[float, float]]:
        """``{algo: (layer self times + other, traced schedule() wall)}``."""
        out = {}
        for algo, (_calls, wall) in self.walls.items():
            total = sum(self._get(layer, algo)[1] for layer in SCHEDULE_LAYERS)
            out[algo] = (total + self._get("schedule", algo)[1], wall)
        return out

    def write_chrome(self, path: Path) -> None:
        """Write the recorded spans as a Chrome-trace (``chrome://tracing``) file."""
        events = [
            {
                "name": label,
                "ph": "X",
                "ts": (start - self._t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent, "algo": algo, "instance": instance},
            }
            for sid, parent, label, start, end, algo, instance in self.spans
        ]
        doc = {"traceEvents": events, "otherData": {"dropped_trees": self.dropped_trees}}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def overhead_pct(traced_s: float, untraced_s: float) -> float:
    """Percent extra wall time of a traced (or observed) run."""
    return 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s > 0 else 0.0


def parallel_metrics(results: list, wall_s: float, jobs: int) -> dict[str, float]:
    """``experiments.parallel.*`` from ``execute_units`` results taking ``wall_s``."""
    walls = [r.wall_s for r in results if r.wall_s is not None]
    busy = sum(walls)
    return {
        "experiments.parallel.busy_s": busy,
        "experiments.parallel.utilization": busy / (jobs * wall_s) if wall_s > 0 else 0.0,
        "experiments.parallel.overhead_s": max(0.0, wall_s - busy / jobs),
        "experiments.parallel.unit_s_p50": statistics.median(walls) if walls else 0.0,
    }
