"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figures``  — regenerate the paper's figures (choose scale / subset;
  ``--jobs N`` fans the sweep over a process pool with identical output,
  ``--cache-dir`` / ``--no-cache`` control the on-disk result cache),
- ``schedule`` — schedule a generated workload and print report + Gantt
  (``--stats`` adds decision counters and phase timings, ``--trace-out``
  streams the decision-event log as JSONL),
- ``profile``  — time each scheduler on a common workload and print the
  per-phase cost breakdown (routing / insertion / processor selection /
  task placement / mapping scoring),
- ``ablation`` — run one of the named design-choice ablations,
- ``export``   — schedule a workload and write SVG / Chrome-trace / JSON,
- ``explain``  — schedule a workload and attribute its makespan: walk the
  binding chain backwards from the finish and break the critical path into
  compute / transfer / contention-wait / idle segments per resource,
- ``runs``     — query the run ledger (``list`` / ``show`` / ``diff`` /
  ``compare --baseline BENCH_*.json``); every ``schedule`` / ``figures`` /
  bench invocation appends a record under ``.repro-runs/``,
- ``topo``     — datacenter fabric generators (``build`` / ``info`` /
  ``validate``): emit a fat-tree / leaf-spine / torus topology as JSON,
  describe its closed-form structure, or check every structural invariant,
- ``lint``     — run the repo-specific static-analysis rules (determinism,
  float discipline, obs guards, transaction safety; see
  ``docs/static_analysis.md``),
- ``info``     — library, algorithm and registry overview.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import IO

from repro import __version__


class _PathError(Exception):
    """A file named on the command line cannot be opened."""


def _open_path(path: str, mode: str = "w") -> IO[str]:
    """Open ``path`` for writing (or reading, ``mode="r"``), or raise
    :class:`_PathError`.

    Commands that write a file call this before they schedule anything, so
    an unwritable path fails at once instead of after the whole run.
    """
    try:
        return open(path, mode)
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise _PathError(f"cannot {verb} {path}: {exc.strerror or exc}") from None


def _cmd_figures(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.experiments import ALL_FIGURES, ExperimentConfig, ResultCache
    from repro.experiments.cache import default_cache_dir

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
        cache = ResultCache(cache_dir)
    names = [args.only] if args.only else sorted(ALL_FIGURES)
    for name in names:
        hetero = name in ("figure3", "figure4")
        if args.scale == "paper":
            config = ExperimentConfig.paper_scale(heterogeneous=hetero)
        elif args.scale == "smoke":
            config = ExperimentConfig.smoke(heterogeneous=hetero)
        else:
            config = ExperimentConfig.default(heterogeneous=hetero)
        config = config.with_(topology=args.topology)
        t0 = perf_counter()
        fig = ALL_FIGURES[name](config, jobs=args.jobs, cache=cache)
        wall = perf_counter() - t0
        print(fig.to_text(plot=args.plot))
        print()
        if not args.no_runlog:
            from repro.experiments.cache import config_fingerprint
            from repro.obs import runlog

            telemetry = getattr(fig, "telemetry", None)
            record = runlog.new_record(
                "sweep",
                config_fingerprint=config_fingerprint(config),
                argv=getattr(args, "_argv", []),
                wall_s=wall,
                meta={
                    "figure": name,
                    "scale": args.scale,
                    "jobs": args.jobs,
                    "topology": args.topology,
                    **(
                        {"telemetry": telemetry.summary_dict()}
                        if telemetry is not None
                        else {}
                    ),
                },
            )
            runlog.append(record, args.runs_dir)
            # Stderr so stdout stays byte-identical for any ledger/cache state.
            print(f"[ledger] {name}: run {record.run_id}", file=sys.stderr)
            if telemetry is not None:
                print(telemetry.to_text(prefix=f"[sweep] {name}: "), file=sys.stderr)
    if cache is not None:
        print(f"[cache] {cache.root}: {cache.stats.to_text()}", file=sys.stderr)
    return 0


def _add_workload_arguments(p: argparse.ArgumentParser) -> None:
    """The algorithm and workload flags of ``schedule``/``explain``/``export``."""
    from repro.core import SCHEDULERS
    from repro.network.builders import TOPOLOGY_BUILDERS
    from repro.taskgraph.kernels import KERNELS

    p.add_argument("--algorithm", choices=sorted(SCHEDULERS), default="oihsa")
    p.add_argument("--tasks", type=int, default=30, help="random layered DAG size")
    p.add_argument("--kernel", choices=sorted(KERNELS), default=None,
                   help="use a named kernel instead")
    p.add_argument("--size", type=int, default=5, help="kernel size parameter")
    p.add_argument("--ccr", type=float, default=None)
    p.add_argument(
        "--topology", choices=sorted(TOPOLOGY_BUILDERS), default="random_wan",
        help="network builder; mesh2d and torus2d take --procs per side, "
        "torus3d is a cube of side --procs",
    )
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)


def _workload_from_args(args: argparse.Namespace):
    """Build the (graph, net) pair :func:`_add_workload_arguments` describes."""
    from repro.network.builders import TOPOLOGY_BUILDERS
    from repro.taskgraph.ccr import scale_to_ccr
    from repro.taskgraph.generators import random_layered_dag
    from repro.taskgraph.kernels import KERNELS

    if args.kernel:
        graph = KERNELS[args.kernel](args.size, rng=args.seed)
    else:
        graph = random_layered_dag(args.tasks, rng=args.seed)
    if args.ccr is not None:
        graph = scale_to_ccr(graph, args.ccr)
    builder = TOPOLOGY_BUILDERS[args.topology]
    if args.topology in ("mesh2d", "torus2d"):
        net = builder(args.procs, args.procs, rng=args.seed + 1)
    elif args.topology == "torus3d":
        net = builder((args.procs,) * 3, rng=args.seed + 1)
    else:
        net = builder(args.procs, rng=args.seed + 1)
    return graph, net


def _workload_fingerprint_doc(args: argparse.Namespace, command: str) -> dict:
    """The ledger fingerprint of a CLI-described workload + algorithm."""
    return {
        "command": command,
        "algorithm": args.algorithm,
        "tasks": args.tasks,
        "kernel": args.kernel,
        "size": args.size,
        "ccr": args.ccr,
        "topology": args.topology,
        "procs": args.procs,
        "seed": args.seed,
    }


def _cmd_schedule(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro import obs
    from repro.core import SCHEDULERS
    from repro.core.validate import validate_schedule
    from repro.viz.report import schedule_report

    kwargs = {}
    # What actually scores the mapping searches' candidates, for --stats /
    # the run ledger.
    kernel_used = None
    if args.algorithm in ("annealing", "genetic"):
        from repro.core.kernelreg import active_kernel

        kernel_used = active_kernel(args.eval_kernel or "auto")
        if args.eval_kernel is not None:
            kwargs["kernel"] = args.eval_kernel
    elif args.eval_kernel is not None:
        print("--eval-kernel only applies to the mapping-search "
              "schedulers (annealing, genetic)")
        return 2
    graph, net = _workload_from_args(args)
    want_stats = args.stats or args.trace_out is not None
    # The ledger wants the run's counters even when the user didn't ask for
    # --stats, so observability is on unless the ledger is off too.
    observing = want_stats or not args.no_runlog
    trace_fh = _open_path(args.trace_out) if args.trace_out else None
    if observing:
        obs.enable(obs.JsonlSink(trace_fh) if trace_fh else obs.ListSink())
    t0 = perf_counter()
    try:
        schedule = SCHEDULERS[args.algorithm](**kwargs).schedule(graph, net)
    finally:
        if observing:
            obs.disable()
        if trace_fh is not None:
            trace_fh.close()
    wall = perf_counter() - t0
    validate_schedule(schedule)
    stats = schedule.stats
    if not want_stats:
        # Ledger-only instrumentation: keep stdout identical to a plain run.
        schedule.stats = None
    print(schedule_report(schedule, gantt=not args.no_gantt))
    if want_stats and kernel_used is not None:
        line = f"kernel: {kernel_used}"
        if stats is not None:
            batches = stats.counter("mapping.batch_evaluations")
            if batches:
                mean = stats.counter("mapping.batch_candidates") / batches
                line += f" (batches: {int(batches)}, mean batch size: {mean:.1f})"
        print(line)
    if args.trace_out:
        print(f"\nwrote decision-event log to {args.trace_out}")
    if not args.no_runlog:
        from repro.obs import runlog

        record = runlog.new_record(
            "schedule",
            fingerprint_doc={
                **_workload_fingerprint_doc(args, "schedule"),
                "eval_kernel": kernel_used,
            },
            argv=getattr(args, "_argv", []),
            makespans={args.algorithm: schedule.makespan},
            metrics=stats.metrics if stats is not None else {},
            timings=stats.timings if stats is not None else {},
            wall_s=wall,
            meta={"n_tasks": len(schedule.placements), "n_procs": args.procs},
        )
        runlog.append(record, args.runs_dir)
        print(f"[ledger] run {record.run_id}", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro import obs
    from repro.core import SCHEDULERS
    from repro.core.explain import explain
    from repro.core.validate import validate_schedule
    from repro.viz.report import explain_report

    graph, net = _workload_from_args(args)
    observing = not args.no_runlog
    with _open_path(args.trace_out) if args.trace_out else nullcontext() as trace_fh:
        if observing:
            obs.enable(obs.ListSink())
        t0 = perf_counter()
        try:
            schedule = SCHEDULERS[args.algorithm]().schedule(graph, net)
        finally:
            if observing:
                obs.disable()
        wall = perf_counter() - t0
        validate_schedule(schedule)
        explanation = explain(schedule)
        if args.json:
            import json

            print(json.dumps(explanation.to_dict(), indent=1, sort_keys=True))
        else:
            print(explain_report(explanation, chain=not args.no_chain))
        if trace_fh is not None:
            from repro.viz.trace import schedule_to_trace

            trace_fh.write(schedule_to_trace(schedule, explanation=explanation))
            print(f"\nwrote Perfetto trace with critical-path track to "
                  f"{args.trace_out}")
    if not args.no_runlog:
        from repro.obs import runlog

        stats = schedule.stats
        record = runlog.new_record(
            "schedule",
            fingerprint_doc=_workload_fingerprint_doc(args, "explain"),
            argv=getattr(args, "_argv", []),
            makespans={args.algorithm: schedule.makespan},
            metrics=stats.metrics if stats is not None else {},
            timings=stats.timings if stats is not None else {},
            wall_s=wall,
            meta={
                "command": "explain",
                "by_category": explanation.by_category(),
                "binding_resources": explanation.binding_resources()[:5],
            },
        )
        runlog.append(record, args.runs_dir)
        print(f"[ledger] run {record.run_id}", file=sys.stderr)
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.obs.runlog import RunLedger
    from repro.utils.tables import format_table

    ledger = RunLedger(args.runs_dir)
    records = ledger.records(kind=args.kind)
    if args.last:
        records = records[-args.last:]
    if not records:
        print(f"(no runs recorded under {ledger.root})")
        return 0
    rows = []
    for r in records:
        makespans = ", ".join(
            f"{algo}={r.makespans[algo]:g}" for algo in sorted(r.makespans)[:3]
        )
        if len(r.makespans) > 3:
            makespans += f", +{len(r.makespans) - 3} more"
        rows.append(
            [r.run_id, r.kind, r.created_at[:19], makespans or "-",
             r.fingerprint[:12]]
        )
    print(format_table(["run", "kind", "created (UTC)", "makespans", "config"], rows))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.exceptions import ObsError
    from repro.obs.runlog import RunLedger

    try:
        record = RunLedger(args.runs_dir).get(args.run_id)
    except ObsError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(record.to_text())
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.exceptions import ObsError
    from repro.obs.runlog import RunLedger
    from repro.utils.tables import format_table

    ledger = RunLedger(args.runs_dir)
    try:
        a, b = ledger.get(args.a), ledger.get(args.b)
    except ObsError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"a: run {a.run_id}  [{a.kind}]  {a.created_at}")
    print(f"b: run {b.run_id}  [{b.kind}]  {b.created_at}")
    if a.fingerprint != b.fingerprint:
        print("note: configs differ (fingerprints "
              f"{a.fingerprint[:12]} vs {b.fingerprint[:12]})")
    print()
    rows = []
    for algo in sorted(set(a.makespans) | set(b.makespans)):
        ma, mb = a.makespans.get(algo), b.makespans.get(algo)
        delta = f"{mb - ma:+g}" if ma is not None and mb is not None else "-"
        rows.append([f"makespan[{algo}]",
                     f"{ma:g}" if ma is not None else "-",
                     f"{mb:g}" if mb is not None else "-", delta])
    counters_a = a.metrics.get("counters", {})
    counters_b = b.metrics.get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name, 0.0), counters_b.get(name, 0.0)
        if va != vb or args.all:
            rows.append([name, f"{va:g}", f"{vb:g}", f"{vb - va:+g}"])
    for phase in sorted(set(a.timings) | set(b.timings)):
        ta = a.timings.get(phase, {}).get("total", 0.0)
        tb = b.timings.get(phase, {}).get("total", 0.0)
        rows.append([f"{phase} (ms)", f"{ta * 1e3:.3f}", f"{tb * 1e3:.3f}",
                     f"{(tb - ta) * 1e3:+.3f}"])
    if a.wall_s is not None and b.wall_s is not None:
        rows.append(["wall (ms)", f"{a.wall_s * 1e3:.1f}",
                     f"{b.wall_s * 1e3:.1f}",
                     f"{(b.wall_s - a.wall_s) * 1e3:+.1f}"])
    if not rows:
        print("(no comparable quantities)")
        return 0
    print(format_table(["quantity", "a", "b", "delta"], rows))
    return 0


def _fresh_bench_record(baseline: dict):
    """Re-run the scheduler-cost bench workload and build a ledger record.

    Each algorithm runs through
    :func:`~repro.experiments.workloads.scheduler_cost_run`, the benchmark's
    own instrumented pass, so the record's counters are directly comparable
    to the committed baseline.
    """
    from repro.core import SCHEDULERS
    from repro.experiments.workloads import SCHEDULER_COST_PARAMS, scheduler_cost_run
    from repro.obs import runlog

    algorithms = sorted(set(baseline.get("algorithms", {})) & set(SCHEDULERS))
    runs = {algo: scheduler_cost_run(algo) for algo in algorithms}
    return runlog.new_record(
        "bench",
        fingerprint_doc={
            "bench": "scheduler_cost",
            "params": SCHEDULER_COST_PARAMS,
            "algorithms": algorithms,
        },
        makespans={a: r["makespan"] for a, r in runs.items()},
        meta={
            "counters": {a: r["counters"] for a, r in runs.items()},
            "wall_s": {a: r["wall_s"] for a, r in runs.items()},
        },
    )


def _cmd_runs_compare(args: argparse.Namespace) -> int:
    import json

    from repro.obs import runlog
    from repro.obs.runlog import RunLedger, compare_to_baseline

    with _open_path(args.baseline, "r") as fh:
        baseline = json.load(fh)
    ledger = RunLedger(args.runs_dir)
    record = None if args.fresh else ledger.latest(kind="bench")
    if record is None:
        print(f"no bench record in {ledger.root}; running the bench workload "
              "fresh", file=sys.stderr)
        record = _fresh_bench_record(baseline)
        runlog.append(record, args.runs_dir)
    findings = compare_to_baseline(
        record,
        baseline,
        rel_tol=args.rel_tol,
        counter_tol=args.counter_tol,
        wall_tol=args.wall_tol,
    )
    print(f"comparing run {record.run_id} ({record.created_at}) against "
          f"{args.baseline}")
    if not findings:
        checked = len(baseline.get("algorithms", {}))
        print(f"OK: {checked} algorithms within tolerance "
              f"(makespan rel tol {args.rel_tol:g}, counter rel tol "
              f"{args.counter_tol:g})")
        return 0
    for f in findings:
        print(f"REGRESSION: {f.message}")
    print(f"{len(findings)} regression(s) found")
    return 1


def _fabric_from_args(args: argparse.Namespace):
    """Build the fabric topology the ``topo`` flags describe.

    Structure flags (``--k`` / ``--leaves`` / ``--dims`` ...) pin the exact
    instance; with only ``--procs`` the canonical instance for that
    processor count is sized automatically (``fabric_for_procs``).
    """
    from repro.network.fabrics import (
        fabric_for_procs,
        kary_fat_tree,
        leaf_spine,
        torus_fabric,
    )

    kind = args.kind
    if kind == "fat_tree":
        if args.k is None:
            return fabric_for_procs("fat_tree", args.procs or 16)
        return kary_fat_tree(
            args.k, hosts_per_edge=args.hosts_per_edge, n_procs=args.procs
        )
    if kind == "leaf_spine":
        if args.leaves is None and args.spines is None:
            return fabric_for_procs("leaf_spine", args.procs or 16)
        return leaf_spine(
            args.leaves or 4,
            args.spines or 2,
            args.hosts_per_leaf,
            n_procs=args.procs,
        )
    if args.dims is None:
        return fabric_for_procs("torus", args.procs or 16)
    return torus_fabric(
        tuple(args.dims), hosts_per_node=args.hosts_per_node, n_procs=args.procs
    )


def _cmd_topo_build(args: argparse.Namespace) -> int:
    from repro.exceptions import TopologyError
    from repro.network.io import topology_to_json

    try:
        net = _fabric_from_args(args)
    except TopologyError as exc:
        print(exc, file=sys.stderr)
        return 2
    doc = topology_to_json(net)
    if args.output:
        with _open_path(args.output) as fh:
            fh.write(doc + "\n")
        counts = net.fabric_plan.expected_counts()
        print(
            f"wrote {net.name}: {counts.processors} processors, "
            f"{counts.switches} switches, {counts.cables} cables "
            f"to {args.output}"
        )
    else:
        print(doc)
    return 0


def _cmd_topo_info(args: argparse.Namespace) -> int:
    from repro.exceptions import TopologyError

    try:
        net = _fabric_from_args(args)
    except TopologyError as exc:
        print(exc, file=sys.stderr)
        return 2
    plan = net.fabric_plan
    counts = plan.expected_counts()
    params = ", ".join(
        f"{key}={value}"
        for key, value in plan.describe().items()
        if key not in ("kind", "hosts")
    )
    print(f"fabric:     {plan.kind} ({params})")
    print(f"name:       {net.name}")
    print(f"processors: {counts.processors}")
    print(f"switches:   {counts.switches}")
    print(f"cables:     {counts.cables} (full duplex: {2 * counts.cables} links)")
    print(f"diameter:   <= {counts.diameter} hops processor-to-processor")
    return 0


def _cmd_topo_validate(args: argparse.Namespace) -> int:
    from repro.exceptions import TopologyError
    from repro.network.fabrics import validate_fabric
    from repro.network.io import topology_to_json

    try:
        net = _fabric_from_args(args)
        validate_fabric(net)
    except TopologyError as exc:
        print(f"FAIL: {exc}")
        return 1
    if args.file:
        with _open_path(args.file, "r") as fh:
            if fh.read().rstrip("\n") != topology_to_json(net):
                print(f"FAIL: {args.file} differs from a fresh "
                      f"{net.name} build")
                return 1
    print(f"OK: {net.name} valid"
          + (f"; {args.file} matches" if args.file else ""))
    return 0


#: workload sizes for ``profile`` (tasks, processors)
_PROFILE_SCALES = {"smoke": (24, 8), "default": (80, 16)}


def _cmd_profile(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro import obs
    from repro.core import SCHEDULERS
    from repro.network.builders import random_wan
    from repro.taskgraph.ccr import scale_to_ccr
    from repro.taskgraph.generators import random_layered_dag
    from repro.utils.tables import format_table

    for name in args.algorithms:
        if name not in SCHEDULERS:
            print(f"unknown algorithm {name!r}; known: {sorted(SCHEDULERS)}")
            return 2
    n_tasks, n_procs = _PROFILE_SCALES[args.scale]
    graph = scale_to_ccr(random_layered_dag(n_tasks, rng=args.seed), args.ccr)
    net = random_wan(n_procs, rng=args.seed + 1)
    phases = (
        "routing", "insertion", "processor_selection", "task_placement",
        "mapping.score",
    )
    rows = []
    for name in args.algorithms:
        # The mapping searches score candidates through a pluggable kernel;
        # report the active one so profile rows are attributable.
        kernel = "-"
        kwargs = {}
        if name in ("annealing", "genetic"):
            from repro.core.kernelreg import active_kernel

            kwargs["kernel"] = args.eval_kernel
            kernel = active_kernel(args.eval_kernel)
        scheduler_cls = SCHEDULERS[name]  # imports its module, untimed
        obs.enable(obs.NullSink())
        obs.reset()
        t0 = perf_counter()
        try:
            for _ in range(args.repeat):
                schedule = scheduler_cls(**kwargs).schedule(graph, net)
            wall = perf_counter() - t0
            stats = schedule.stats
        finally:
            obs.disable()
        timed = {p: stats.timings.get(p, {"total": 0.0})["total"] for p in phases}
        other = wall / args.repeat - sum(timed.values())
        batches = stats.counter("mapping.batch_evaluations")
        if batches:
            mean = stats.counter("mapping.batch_candidates") / batches
            kernel += f" (batch {mean:.0f})"
        rows.append(
            [name, kernel, f"{wall / args.repeat * 1e3:.2f}"]
            + [f"{timed[p] * 1e3:.2f}" for p in phases]
            + [f"{max(0.0, other) * 1e3:.2f}"]
        )
    print(
        f"workload: {n_tasks} tasks (CCR {args.ccr:g}) on {n_procs}-processor "
        f"random WAN, seed {args.seed}; times per schedule() call"
        + (f", wall averaged over {args.repeat} runs" if args.repeat > 1 else "")
    )
    print()
    print(
        format_table(
            ["algorithm", "kernel", "wall ms", "routing", "insertion",
             "proc-select", "task-place", "scoring", "other"],
            rows,
        )
    )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ABLATIONS, run_ablation
    from repro.experiments.config import ExperimentConfig

    names = [args.name] if args.name else sorted(ABLATIONS)
    config = ExperimentConfig.default()
    for name in names:
        result = run_ablation(name, config, ccr=args.ccr, n_procs=args.procs)
        print(f"{name} (base: {result.base}):")
        for variant, imp in result.improvements.items():
            print(f"  {variant}: {imp:+.1f}% makespan vs base")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core import SCHEDULERS
    from repro.core.io import schedule_to_json
    from repro.core.validate import validate_schedule
    from repro.viz.svg import schedule_to_svg
    from repro.viz.trace import schedule_to_trace

    renderers = {
        "svg": schedule_to_svg,
        "trace": schedule_to_trace,
        "json": schedule_to_json,
    }
    with _open_path(args.output) as fh:
        graph, net = _workload_from_args(args)
        schedule = SCHEDULERS[args.algorithm]().schedule(graph, net)
        validate_schedule(schedule)
        fh.write(renderers[args.format](schedule))
    print(f"wrote {args.format} for {schedule.summary()} to {args.output}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run

    return run(args)


def _cmd_info(args: argparse.Namespace) -> int:  # noqa: ARG001
    from repro.core import SCHEDULERS
    from repro.network.builders import TOPOLOGY_BUILDERS
    from repro.taskgraph.kernels import KERNELS

    print(f"repro {__version__} — contention-aware edge scheduling (Han & Wang, ICPP 2006)")
    print(f"algorithms: {', '.join(sorted(SCHEDULERS))}")
    print(f"topologies: {', '.join(sorted(TOPOLOGY_BUILDERS))}")
    print(f"kernels:    {', '.join(sorted(KERNELS))}")
    return 0


def _add_runlog_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="run ledger location (default: $REPRO_RUNS_DIR or .repro-runs)",
    )
    p.add_argument(
        "--no-runlog", action="store_true",
        help="do not append this run to the run ledger",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("--scale", choices=("smoke", "default", "paper"), default="default")
    p.add_argument("--only", choices=("figure1", "figure2", "figure3", "figure4"))
    p.add_argument("--plot", action="store_true", help="append ASCII plots")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (output is identical for any N)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    from repro.experiments.config import SWEEP_TOPOLOGIES

    p.add_argument(
        "--topology", choices=SWEEP_TOPOLOGIES, default="random_wan",
        help="network family for the sweep points (datacenter fabrics are "
        "sized per processor count)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/experiments)",
    )
    _add_runlog_arguments(p)
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("schedule", help="schedule a generated workload")
    _add_workload_arguments(p)
    p.add_argument("--no-gantt", action="store_true")
    p.add_argument(
        "--stats", action="store_true",
        help="enable observability; report decision counters and phase timings",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="stream the decision-event log as JSONL (implies --stats)",
    )
    p.add_argument(
        "--eval-kernel", choices=("auto", "python", "compiled"), default=None,
        help="implementation of the mapping searches' scoring hot loop: "
        "'auto' (default) uses the AOT-compiled extension when built, "
        "'python' forces the reference loop, 'compiled' requires the "
        "extension (annealing/genetic only; kernels are bit-identical — "
        "named --eval-kernel because --kernel selects task-graph kernels)",
    )
    _add_runlog_arguments(p)
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser(
        "explain",
        help="schedule a workload and attribute its makespan to resources",
    )
    _add_workload_arguments(p)
    p.add_argument("--json", action="store_true",
                   help="emit the attribution as JSON instead of tables")
    p.add_argument("--no-chain", action="store_true",
                   help="omit the segment-by-segment binding chain table")
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto trace with the critical path as a "
        "highlighted track",
    )
    _add_runlog_arguments(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "runs",
        help="query the run ledger (list / show / diff / compare)",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    q = runs_sub.add_parser("list", help="list recorded runs, oldest first")
    q.add_argument("--kind", choices=("schedule", "sweep", "bench"), default=None)
    q.add_argument("-n", "--last", type=int, default=0, metavar="N",
                   help="show only the most recent N runs")
    q.add_argument("--runs-dir", default=None, metavar="DIR")
    q.set_defaults(fn=_cmd_runs_list)

    q = runs_sub.add_parser("show", help="print one run record in full")
    q.add_argument("run_id", help="run id (unambiguous prefix accepted)")
    q.add_argument("--runs-dir", default=None, metavar="DIR")
    q.set_defaults(fn=_cmd_runs_show)

    q = runs_sub.add_parser(
        "diff", help="makespan / counter / timing deltas between two runs"
    )
    q.add_argument("a", help="baseline run id (prefix accepted)")
    q.add_argument("b", help="comparison run id (prefix accepted)")
    q.add_argument("--all", action="store_true",
                   help="include counters that did not change")
    q.add_argument("--runs-dir", default=None, metavar="DIR")
    q.set_defaults(fn=_cmd_runs_diff)

    q = runs_sub.add_parser(
        "compare",
        help="regression verdict of the latest bench run against a "
        "BENCH_*.json baseline (exit 1 on regression)",
    )
    q.add_argument("--baseline", required=True, metavar="PATH",
                   help="committed BENCH_*.json report to compare against")
    q.add_argument("--fresh", action="store_true",
                   help="re-run the bench workload instead of using the "
                   "latest ledger record")
    q.add_argument("--rel-tol", type=float, default=0.0, metavar="T",
                   help="relative makespan tolerance (default 0: exact — "
                   "the engines are deterministic)")
    q.add_argument("--counter-tol", type=float, default=0.0, metavar="T",
                   help="relative decision-counter tolerance (default 0)")
    q.add_argument("--wall-tol", type=float, default=None, metavar="X",
                   help="fail when wall time exceeds X times the baseline "
                   "(default: wall time is reported, never gated)")
    q.add_argument("--runs-dir", default=None, metavar="DIR")
    q.set_defaults(fn=_cmd_runs_compare)

    p = sub.add_parser(
        "topo",
        help="datacenter fabric generators (build / info / validate)",
    )
    topo_sub = p.add_subparsers(dest="topo_command", required=True)

    from repro.network.fabrics import FABRIC_KINDS

    def _add_fabric_arguments(q: argparse.ArgumentParser) -> None:
        q.add_argument("kind", choices=FABRIC_KINDS, help="fabric family")
        q.add_argument("--k", type=int, default=None,
                       help="fat-tree arity (even; k pods, k^3/4 hosts)")
        q.add_argument("--hosts-per-edge", type=int, default=None,
                       help="fat-tree hosts per edge switch (default k/2)")
        q.add_argument("--leaves", type=int, default=None,
                       help="leaf-spine leaf switch count")
        q.add_argument("--spines", type=int, default=None,
                       help="leaf-spine spine switch count")
        q.add_argument("--hosts-per-leaf", type=int, default=16,
                       help="leaf-spine hosts per leaf switch")
        q.add_argument("--dims", type=int, nargs="+", default=None,
                       metavar="N", help="torus dimensions (2 or 3 values)")
        q.add_argument("--hosts-per-node", type=int, default=1,
                       help="torus hosts per grid switch")
        q.add_argument(
            "--procs", type=int, default=None,
            help="cap the host count; alone (no structure flags), size the "
            "canonical fabric for this processor count",
        )

    q = topo_sub.add_parser("build", help="emit the fabric topology as JSON")
    _add_fabric_arguments(q)
    q.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write JSON here instead of stdout")
    q.set_defaults(fn=_cmd_topo_build)

    q = topo_sub.add_parser("info", help="describe the fabric's structure")
    _add_fabric_arguments(q)
    q.set_defaults(fn=_cmd_topo_info)

    q = topo_sub.add_parser(
        "validate",
        help="check structural invariants (exit 1 on any violation)",
    )
    _add_fabric_arguments(q)
    q.add_argument("--file", default=None, metavar="PATH",
                   help="also check this JSON file is byte-identical to a "
                   "fresh build")
    q.set_defaults(fn=_cmd_topo_validate)

    p = sub.add_parser(
        "profile",
        help="time each scheduler on a common workload, print phase breakdown",
    )
    p.add_argument("--scale", choices=sorted(_PROFILE_SCALES), default="default")
    p.add_argument(
        "--algorithms", nargs="+", default=["ba", "oihsa", "bbsa", "classic"],
        metavar="ALGO", help="schedulers to profile (default: the paper's)",
    )
    p.add_argument("--ccr", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeat", type=int, default=1, help="runs to average over")
    p.add_argument(
        "--eval-kernel", choices=("auto", "python", "compiled"), default="auto",
        help="scoring kernel for the mapping-search rows "
        "(bit-identical; the active kernel shows in the kernel column)",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("ablation", help="run a design-choice ablation")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--ccr", type=float, default=2.0)
    p.add_argument("--procs", type=int, default=16)
    p.set_defaults(fn=_cmd_ablation)

    p = sub.add_parser("export", help="schedule a workload and export it")
    p.add_argument("output", help="output file path")
    p.add_argument("--format", choices=("svg", "trace", "json"), default="svg")
    _add_workload_arguments(p)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("lint", help="run the repo's static-analysis rules")
    from repro.analysis.cli import add_arguments as add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser("info", help="library overview")
    p.set_defaults(fn=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The raw argv goes into ledger records; sys.argv would show the test
    # runner's own arguments when main() is invoked programmatically.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.fn(args)
    except _PathError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


if __name__ == "__main__":
    sys.exit(main())
