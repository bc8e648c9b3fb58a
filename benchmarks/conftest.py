"""Shared benchmark configuration.

Every ``bench_fig*.py`` regenerates one figure of the paper: the benchmark
timer measures the scheduling work, and the regenerated series (measured vs
published values plus shape checks) is printed at the end of the session so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction report.

Scale knobs (environment variable):
    REPRO_BENCH_SCALE=smoke    tiny sweep, seconds per figure (default)
    REPRO_BENCH_SCALE=default  scaled-down sweep, ~10s per figure
    REPRO_BENCH_SCALE=paper    the published parameters (hours per figure)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig

# Benches that diff against the retained oracles import ``tests.naive_reference``;
# the repository root makes that importable from any working directory.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")


def _config(heterogeneous: bool) -> ExperimentConfig:
    if SCALE == "paper":
        return ExperimentConfig.paper_scale(heterogeneous=heterogeneous)
    if SCALE == "default":
        return ExperimentConfig.default(heterogeneous=heterogeneous)
    return ExperimentConfig.smoke(heterogeneous=heterogeneous)


@pytest.fixture
def homo_config() -> ExperimentConfig:
    """Sweep parameters for the homogeneous figures (1 and 2)."""
    return _config(heterogeneous=False)


@pytest.fixture
def hetero_config() -> ExperimentConfig:
    """Sweep parameters for the heterogeneous figures (3 and 4)."""
    return _config(heterogeneous=True)


_reports: list[str] = []


@pytest.fixture
def report_sink() -> list[str]:
    """Append figure/ablation reports here; printed at session end."""
    return _reports


def pytest_sessionfinish(session, exitstatus):  # noqa: ARG001
    if _reports:
        print("\n\n===== reproduction report =====")
        print("\n\n".join(_reports))
