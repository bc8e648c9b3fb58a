"""networkx is an interop-only dependency and must stay off the import path.

``repro.taskgraph.graph`` and ``repro.network.topology`` import networkx
inside their ``to_networkx`` helpers, so ``import repro`` and everything a
scheduling run, the validator, the sweep runner or the CLI touches runs
without loading it.  A pool worker started by spawn or forkserver, or any
``python -m repro`` call, then skips networkx's import time and memory.  The
check runs in a fresh interpreter because this test process has already
imported networkx through other test modules.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

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


def test_networkx_stays_unloaded_until_interop():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
