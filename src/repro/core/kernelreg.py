"""Kernel registry: pick the batch-evaluation kernel implementation.

The hot loop of :class:`~repro.core.batch.BatchMappingEvaluator` exists
twice — the always-importable pure-Python reference
(:class:`repro.core._kernel.PyKernel`) and an optional AOT-built C
extension (``repro.core._kernel_c`` via :mod:`repro.core._kernel_cwrap`) —
and this module is the single place that decides which one runs.

``kernel`` values (CLI ``--eval-kernel`` / scheduler ``kernel=``):

- ``auto`` (default) — use the compiled extension when importable, fall
  back to pure Python otherwise.  The fallback is observable: it bumps the
  ``kernel.auto_fallbacks`` counter (when obs is on) and is recorded in
  :func:`kernel_provenance`.
- ``python`` — force the reference kernel (the differential suites pin
  this to compare against the compiled one).
- ``compiled`` — require the extension; raises
  :class:`~repro.exceptions.SchedulingError` when it is not built, rather
  than silently degrading.

Both kernels are bit-identical by contract; selection therefore never
changes a makespan, only wall time.  Provenance (which kernel ran, plus
the build sidecar written by :mod:`repro.core.kernel_build`) is surfaced
in ``repro profile``, ``--stats`` and the run-ledger fingerprint so BENCH
records from different kernels never silently compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core._kernel import KernelProtocol, PyKernel
from repro.exceptions import SchedulingError
from repro.obs import OBS

#: Accepted ``kernel=`` values, in CLI display order.
KERNEL_CHOICES = ("auto", "python", "compiled")

#: Shared construction signature of every kernel implementation:
#: (n, n_procs, exec_flat, edge_src, edge_cost, edge_off, cut_through, hop).
KernelFactory = Callable[
    [int, int, "list[float]", "list[int]", "list[float]", "list[int]", bool, float],
    KernelProtocol,
]


@dataclass(frozen=True)
class KernelInfo:
    """Outcome of one kernel resolution."""

    requested: str
    active: str
    compiled_available: bool
    fallback: bool


# Probe result cache: the import attempt runs once per process.  Tests
# simulate a missing extension by monkeypatching ``_probed = True`` and
# ``_compiled_factory = None``.
_probed = False
_compiled_factory: KernelFactory | None = None


def _probe() -> KernelFactory | None:
    """Import the compiled extension's wrapper, once; None when absent."""
    global _probed, _compiled_factory
    if not _probed:
        try:
            from repro.core._kernel_cwrap import CKernel
        except ImportError:
            _compiled_factory = None
        else:
            _compiled_factory = CKernel
        _probed = True
    return _compiled_factory


def compiled_available() -> bool:
    """Whether the AOT-built kernel extension is importable."""
    return _probe() is not None


def compiled_build_meta() -> dict[str, object] | None:
    """The build-provenance sidecar written next to the extension, if any."""
    meta_path = Path(__file__).with_name("_kernel_c_meta.json")
    try:
        raw = meta_path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        doc = json.loads(raw)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def resolve_kernel(requested: str = "auto") -> tuple[KernelFactory, KernelInfo]:
    """The kernel factory for ``requested``, plus resolution provenance."""
    if requested not in KERNEL_CHOICES:
        raise SchedulingError(
            f"unknown kernel {requested!r}; expected one of {KERNEL_CHOICES}"
        )
    factory = _probe()
    available = factory is not None
    if requested == "python":
        return PyKernel, KernelInfo("python", "python", available, False)
    if requested == "compiled":
        if factory is None:
            raise SchedulingError(
                "kernel='compiled' but the repro.core._kernel_c extension is "
                "not built; install the [compiled] extra and run "
                "`python -m repro.core.kernel_build` (or use kernel='auto')"
            )
        return factory, KernelInfo("compiled", "compiled", True, False)
    if factory is not None:
        return factory, KernelInfo("auto", "compiled", True, False)
    if OBS.on:
        OBS.metrics.counter("kernel.auto_fallbacks").inc()
    return PyKernel, KernelInfo("auto", "python", False, True)


def active_kernel(requested: str = "auto") -> str:
    """The kernel variant ``requested`` resolves to, without constructing."""
    if requested not in KERNEL_CHOICES:
        raise SchedulingError(
            f"unknown kernel {requested!r}; expected one of {KERNEL_CHOICES}"
        )
    if requested == "auto":
        return "compiled" if compiled_available() else "python"
    return requested


def kernel_provenance(requested: str = "auto") -> dict[str, object]:
    """JSON-ready provenance for ledger fingerprints and BENCH records."""
    active = active_kernel(requested)
    doc: dict[str, object] = {
        "requested": requested,
        "active": active,
        "compiled_available": compiled_available(),
    }
    if active == "compiled":
        meta = compiled_build_meta()
        if meta is not None:
            doc["build"] = meta
    return doc
