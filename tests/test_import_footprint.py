"""Import footprint: a process loads only the modules it uses.

Two rules keep ``import repro`` and the package facades cheap, which every
``python -m repro`` call and every spawn- or forkserver-started pool worker
pays before its first unit:

- networkx is an interop-only dependency: ``repro.taskgraph.graph`` and
  ``repro.network.topology`` import it inside their ``to_networkx``
  helpers, so scheduling, validation, the sweep runner and the CLI run
  without it;
- the re-exporting package ``__init__`` files import a public name's
  submodule on first access (``repro._lazy``), and ``SCHEDULERS`` imports
  a scheduler's module only when that scheduler is looked up.

Every check runs in a fresh interpreter, because this test process has
already imported most of the package through other test modules.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The re-exporting packages, each a lazy facade.
FACADES = (
    "repro",
    "repro.core",
    "repro.network",
    "repro.taskgraph",
    "repro.linksched",
    "repro.experiments",
    "repro.procsched",
    "repro.utils",
)

#: ``SCHEDULERS`` in registration order, with each class's module.
SCHEDULER_MODULES = {
    "classic": "repro.core.classic",
    "ba": "repro.core.ba",
    "oihsa": "repro.core.oihsa",
    "bbsa": "repro.core.bbsa",
    "heft": "repro.core.heft",
    "cpop": "repro.core.cpop",
    "annealing": "repro.core.annealing",
    "genetic": "repro.core.genetic",
    "packet-ba": "repro.core.packetba",
}

#: What the benchmark's set-up never needs.
NOT_FOR_SETUP = (
    *SCHEDULER_MODULES.values(),
    "repro.experiments.figures",
    "repro.network.fabrics",
    "repro.core.explain",
    "repro.viz",
    "repro.analysis",
    "concurrent.futures.process",
)


def run_child(code: str, env: dict[str, str]) -> str:
    """Standard output of ``code`` run by a fresh interpreter in the repo root."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(modules: list[str], names: tuple[str, ...]) -> list[str]:
    """Entries of ``modules`` that are one of ``names`` or inside one."""
    return [m for m in modules if any(m == n or m.startswith(n + ".") for n in names)]


CHILD = textwrap.dedent(
    """
    import contextlib
    import io
    import sys
    import tempfile

    import repro
    from repro.__main__ import main
    from repro.core import SCHEDULERS
    from repro.core.validate import validate_schedule
    from repro.exceptions import GraphError
    from repro.experiments.cache import ResultCache
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.parallel import execute_units, plan_sweep
    from repro.experiments.workloads import paper_workload
    from repro.taskgraph.graph import TaskGraph
    from repro.taskgraph.validate import validate_graph

    config = ExperimentConfig.smoke()
    inst = paper_workload(config, 1.0, 4, 7)
    for name in sorted(SCHEDULERS):
        validate_schedule(SCHEDULERS[name]().schedule(inst.graph, inst.net))

    _, units = plan_sweep(config, "ccr")
    with tempfile.TemporaryDirectory() as cache_dir:
        results = execute_units(
            config, units[:2], validate=True, cache=ResultCache(cache_dir)
        )
    assert [sorted(r.makespans) for r in results] == [
        sorted(config.algorithms)
    ] * 2

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["info"]) == 0
        assert main(
            ["schedule", "--tasks", "10", "--procs", "4", "--no-gantt",
             "--no-runlog"]
        ) == 0
    assert "algorithms:" in out.getvalue()
    assert "makespan" in out.getvalue()

    assert "networkx" not in sys.modules, "networkx loaded before interop"

    g = inst.graph
    dg = g.to_networkx()
    assert dg.number_of_nodes() == g.num_tasks
    assert dg.number_of_edges() == g.num_edges
    back = TaskGraph.from_networkx(dg)
    assert sorted(back.task_ids()) == sorted(g.task_ids())
    assert all(
        back.task(t).weight == g.task(t).weight for t in g.task_ids()
    )
    assert sorted((e.src, e.dst, e.cost) for e in back.edges()) == sorted(
        (e.src, e.dst, e.cost) for e in g.edges()
    )

    diamond = TaskGraph(name="diamond")
    for tid in range(4):
        diamond.add_task(tid, 1.0)
    for src, dst in ((0, 1), (0, 2), (1, 3), (2, 3)):
        diamond.add_edge(src, dst, 1.0)
    validate_graph(diamond, require_connected=True)
    diamond.add_task(4, 1.0)
    try:
        validate_graph(diamond, require_connected=True)
    except GraphError as exc:
        assert "not weakly connected" in str(exc)
    else:
        raise AssertionError("disconnected graph passed validation")

    mg = inst.net.to_networkx()
    assert mg.number_of_nodes() == inst.net.num_vertices
    assert mg.number_of_edges() == sum(
        len(inst.net.out_links(v.vid)) for v in inst.net.vertices()
    )
    assert "networkx" in sys.modules
    print("ok")
    """
)


def test_networkx_stays_unloaded_until_interop(child_env):
    assert run_child(CHILD, child_env).strip() == "ok"


def test_facades_import_no_submodule(child_env):
    out = run_child(
        f"""
        import importlib, json, sys
        added = {{}}
        for name in {FACADES!r}:
            before = set(sys.modules)
            importlib.import_module(name)
            added[name] = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
        print(json.dumps(added))
        """,
        child_env,
    )
    added = json.loads(out)
    assert added.pop("repro") == ["repro", "repro._lazy"]
    assert added == {name: [name] for name in FACADES[1:]}


def test_benchmark_setup_loads_only_what_runs(child_env):
    # What the end-to-end benchmark's set-up probe times: import its
    # workloads module and plan every workload.
    out = run_child(
        f"""
        import json, sys
        sys.path.insert(0, {str(REPO_ROOT / "benchmarks" / "e2e")!r})
        import workloads
        for name in workloads.WORKLOADS:
            workloads.get(name).plan(workloads.DEFAULT_SEED)
        print(json.dumps(sorted(sys.modules)))
        """,
        child_env,
    )
    assert loaded(json.loads(out), NOT_FOR_SETUP) == []


def test_info_loads_no_scheduler(child_env):
    out = run_child(
        """
        import contextlib, io, json, runpy, sys
        sys.argv = ["repro", "info"]
        with contextlib.redirect_stdout(io.StringIO()) as text:
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as exc:
                assert exc.code == 0, exc.code
        assert "algorithms: annealing, ba, bbsa" in text.getvalue()
        print(json.dumps(sorted(sys.modules)))
        """,
        child_env,
    )
    assert loaded(json.loads(out), tuple(SCHEDULER_MODULES.values())) == []


def test_topology_registry_is_complete_without_fabrics(child_env):
    # The CLI takes its ``--topology`` choices from the registry before
    # anything has imported ``repro.network.fabrics``, so the sized fabric
    # builders are registered by ``builders`` itself.
    out = run_child(
        """
        import json, sys
        from repro.network.builders import TOPOLOGY_BUILDERS
        print(json.dumps([sorted(TOPOLOGY_BUILDERS), "repro.network.fabrics" in sys.modules]))
        """,
        child_env,
    )
    names, fabrics_loaded = json.loads(out)
    assert len(names) == 15
    assert {"fabric_fat_tree", "fabric_leaf_spine", "fabric_torus"} <= set(names)
    assert not fabrics_loaded
    for verb, extra in (("schedule", ["--no-gantt"]), ("explain", [])):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", verb, "--topology", "fabric_leaf_spine",
             "--procs", "8", "--no-runlog", *extra],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "makespan" in proc.stdout


def test_every_public_name_resolves_to_its_definition(child_env):
    out = run_child(
        f"""
        import importlib, inspect, json, sys
        # The package keeps the function ``explain`` when its same-named
        # submodule is imported first.
        import repro.core.explain
        problems, seen, sizes = [], {{}}, {{}}
        for name in {FACADES!r}:
            pkg = importlib.import_module(name)
            listed = set(dir(pkg))
            sizes[name] = len(pkg.__all__)
            for attr in pkg.__all__:
                value = getattr(pkg, attr)
                if attr not in listed:
                    problems.append(f"{{name}}.{{attr}} is not in dir()")
                if (inspect.isfunction(value) or inspect.isclass(value)) and (
                    getattr(sys.modules[value.__module__], attr) is not value
                ):
                    problems.append(f"{{name}}.{{attr}} is not {{value.__module__}}.{{attr}}")
                if seen.setdefault(attr, value) is not value:
                    problems.append(f"{{name}}.{{attr}} differs from another package's")
        import repro.taskgraph.kernels
        from repro import kernels
        from repro.core import explain
        if kernels is not repro.taskgraph.kernels:
            problems.append("repro.kernels is not the submodule")
        if not inspect.isfunction(explain) or explain.__module__ != "repro.core.explain":
            problems.append(f"repro.core.explain is {{explain!r}}")
        print(json.dumps([problems, sizes]))
        """,
        child_env,
    )
    problems, sizes = json.loads(out)
    assert problems == []
    # The public surface of each facade, by size.
    assert sizes == {
        "repro": 78,
        "repro.core": 35,
        "repro.network": 27,
        "repro.taskgraph": 17,
        "repro.linksched": 15,
        "repro.experiments": 31,
        "repro.procsched": 4,
        "repro.utils": 4,
    }


def test_unknown_attribute_raises(child_env):
    out = run_child(
        f"""
        import importlib, json
        missing = []
        for name in {FACADES!r}:
            pkg = importlib.import_module(name)
            try:
                getattr(pkg, "no_such_name")
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                missing.append(name)
        # An unknown name lets ``from package import submodule`` import it.
        from repro import obs
        from repro.experiments import ablations
        print(json.dumps([missing, obs.__name__, ablations.__name__]))
        """,
        child_env,
    )
    assert json.loads(out) == [[], "repro.obs", "repro.experiments.ablations"]


def test_schedulers_registry_imports_on_lookup(child_env):
    out = run_child(
        """
        import json, sys
        from repro.core import SCHEDULERS
        names = list(SCHEDULERS)
        before = [m for m in sys.modules if m.startswith("repro.core.")]
        assert "nope" not in SCHEDULERS and "ba" in SCHEDULERS and len(SCHEDULERS) == 9
        classes = {}
        for name in names:
            cls = SCHEDULERS[name]
            classes[name] = [cls.__module__, getattr(sys.modules[cls.__module__], cls.__name__) is cls]
        try:
            SCHEDULERS["nope"]
        except KeyError:
            pass
        else:
            raise AssertionError("unknown scheduler looked up")
        try:
            SCHEDULERS["nope"] = object
        except TypeError:
            pass
        else:
            raise AssertionError("SCHEDULERS accepted a new entry")
        print(json.dumps([names, before, classes]))
        """,
        child_env,
    )
    names, before, classes = json.loads(out)
    assert names == list(SCHEDULER_MODULES)
    assert before == []
    assert classes == {name: [module, True] for name, module in SCHEDULER_MODULES.items()}


def test_pool_parent_imports_schedulers_before_forking(child_env):
    # The units run in the pool's workers, so the parent holds the runner
    # and the scheduler modules only because it imported them before
    # starting the pool; workers forked after that inherit them.
    out = run_child(
        """
        import json, sys
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.parallel import execute_units, plan_sweep

        config = ExperimentConfig.smoke()
        _x, units = plan_sweep(config, "ccr")
        results = execute_units(config, units[:2], jobs=2)
        assert [r.index for r in results] == [0, 1]
        print(json.dumps(sorted(sys.modules)))
        """,
        child_env,
    )
    assert {
        "repro.experiments.runner", "repro.core.ba", "repro.core.oihsa", "repro.core.bbsa"
    } <= set(json.loads(out))
