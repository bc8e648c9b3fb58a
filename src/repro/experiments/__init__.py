"""Experiment harness: the paper's Section 6 evaluation, reproducible.

- :mod:`repro.experiments.config` — experiment parameter dataclasses,
- :mod:`repro.experiments.workloads` — the paper's workload generator,
- :mod:`repro.experiments.runner` — run algorithm comparisons, aggregate
  improvement ratios,
- :mod:`repro.experiments.parallel` — deterministic process-pool fan-out of
  sweep work units (``improvement_series(..., jobs=N)``),
- :mod:`repro.experiments.cache` — on-disk per-(instance, algorithm) result
  cache keyed by config fingerprint + instance seed,
- :mod:`repro.experiments.figures` — one entry point per paper figure,
- :mod:`repro.experiments.ablations` — design-choice ablations.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "ExperimentConfig": "config",
    "PAPER_CCRS": "config",
    "PAPER_PROC_COUNTS": "config",
    "paper_workload": "workloads",
    "WorkloadInstance": "workloads",
    "ComparisonResult": "runner",
    "compare_once": "runner",
    "improvement_series": "runner",
    "CacheStats": "cache",
    "ResultCache": "cache",
    "comparison_from_json": "cache",
    "comparison_to_json": "cache",
    "config_fingerprint": "cache",
    "default_cache_dir": "cache",
    "unit_key": "cache",
    "SweepUnit": "parallel",
    "UnitResult": "parallel",
    "execute_units": "parallel",
    "merge_unit_results": "parallel",
    "plan_sweep": "parallel",
    "run_unit": "parallel",
    "PairedSummary": "stats",
    "paired_summary": "stats",
    "bootstrap_ci": "stats",
    "sign_test_p": "stats",
    "FigureResult": "figures",
    "figure1": "figures",
    "figure2": "figures",
    "figure3": "figures",
    "figure4": "figures",
    "ALL_FIGURES": "figures",
})
