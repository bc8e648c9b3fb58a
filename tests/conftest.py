"""Shared fixtures: small graphs and topologies used across test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.network.builders import fully_connected, random_wan, switched_cluster
from repro.taskgraph.graph import TaskGraph


@pytest.fixture(autouse=True)
def _isolated_run_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a throwaway directory for every test.

    CLI commands append to ``.repro-runs`` in the working directory by
    default; without this, running the suite would grow a ledger in the
    repo checkout.
    """
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro-runs"))


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment of a child ``python`` that imports this checkout's ``src``.

    The caller's ``PYTHONDONTWRITEBYTECODE`` is passed on, so a suite run
    with it set leaves no ``__pycache__`` in ``src/``.
    """
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


@pytest.fixture
def chain3() -> TaskGraph:
    """t0 -> t1 -> t2, unit-ish costs."""
    g = TaskGraph(name="chain3")
    g.add_task(0, 2.0)
    g.add_task(1, 3.0)
    g.add_task(2, 4.0)
    g.add_edge(0, 1, 5.0)
    g.add_edge(1, 2, 6.0)
    return g


@pytest.fixture
def diamond4() -> TaskGraph:
    """t0 -> {t1, t2} -> t3."""
    g = TaskGraph(name="diamond4")
    for tid, w in enumerate((2.0, 3.0, 4.0, 1.0)):
        g.add_task(tid, w)
    g.add_edge(0, 1, 10.0)
    g.add_edge(0, 2, 20.0)
    g.add_edge(1, 3, 30.0)
    g.add_edge(2, 3, 40.0)
    return g


@pytest.fixture
def fork8() -> TaskGraph:
    """One fork into 8 parallel tasks and a join (stresses contention)."""
    from repro.taskgraph.kernels import fork_join

    return fork_join(8, rng=7)


@pytest.fixture
def net2():
    """Two processors, one full-duplex cable."""
    return fully_connected(2)


@pytest.fixture
def net4():
    """Four processors behind one switch."""
    return switched_cluster(4)


@pytest.fixture
def wan16():
    """Paper-style random WAN with 16 processors."""
    return random_wan(16, rng=42)
