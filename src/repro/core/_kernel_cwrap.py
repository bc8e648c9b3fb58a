"""Thin wrapper giving the AOT-built kernel the PyKernel protocol.

Importing this module requires the optional extension
``repro.core._kernel_c`` (built by :mod:`repro.core.kernel_build`); the
:mod:`repro.core.kernelreg` probe catches the ImportError and falls back
to the pure-Python reference.  :class:`CKernel` keeps all candidate state
in C (columns, journals, route plans) and crosses the FFI boundary once
per evaluation: one genome copy in, one ``(makespan, divergence, resumed,
missing_pair)`` tuple out.  The view classes exist for the differential
tests, which read the live columns back; they return copies, which is
fine — the contract is read-only inspection.
"""

from __future__ import annotations

from typing import Sequence

from repro.core._kernel_c import ffi, lib  # type: ignore[import-not-found]
from repro.types import LinkId

#: mirrors repro.core._kernel.KERNEL_VARIANT for the compiled twin
KERNEL_VARIANT = "compiled"
COMPILED = True


class CLinkStateView:
    """Read-only view of the C kernel's link columns."""

    def __init__(self, kernel: "CKernel") -> None:
        self._kernel = kernel

    def columns(self, lid: LinkId) -> tuple[list[float], list[float]]:
        """Copies of ``lid``'s ``(starts, finishes)`` columns."""
        ks = self._kernel._ks
        n = lib.ks_link_len(ks, lid)
        if n == 0:
            return ([], [])
        starts = ffi.new("double[]", n)
        finishes = ffi.new("double[]", n)
        lib.ks_read_link(ks, lid, starts, finishes)
        return (ffi.unpack(starts, n), ffi.unpack(finishes, n))

    def booked_links(self) -> list[LinkId]:
        """Link ids with at least one live booking, ascending."""
        ks = self._kernel._ks
        max_lid = lib.ks_max_lid(ks)
        return [
            lid for lid in range(max_lid + 1) if lib.ks_link_len(ks, lid) > 0
        ]


class CProcStateView:
    """Read-only view of the C kernel's processor finish column."""

    def __init__(self, kernel: "CKernel") -> None:
        self._kernel = kernel

    @property
    def finish(self) -> list[float]:
        """Copy of the per-processor finish column."""
        kernel = self._kernel
        out = ffi.new("double[]", kernel._n_procs)
        lib.ks_read_proc(kernel._ks, out)
        return ffi.unpack(out, kernel._n_procs)

    def makespan(self) -> float:
        """Completion time of the busiest processor (0 when all idle)."""
        return lib.ks_makespan(self._kernel._ks)


class CKernel:
    """The compiled kernel behind the shared construction signature."""

    variant = KERNEL_VARIANT
    compiled = COMPILED

    def __init__(
        self,
        n: int,
        n_procs: int,
        exec_flat: list[float],
        edge_src: list[int],
        edge_cost: list[float],
        edge_off: list[int],
        cut_through: bool,
        hop: float,
    ) -> None:
        ks = lib.ks_new(
            n,
            n_procs,
            ffi.new("double[]", exec_flat),
            ffi.new("int[]", edge_src),
            ffi.new("double[]", edge_cost),
            ffi.new("int[]", edge_off),
            1 if cut_through else 0,
            hop,
        )
        if ks == ffi.NULL:
            raise MemoryError("kernel state allocation failed")
        self._ks = ffi.gc(ks, lib.ks_free)
        self._n = n
        self._n_procs = n_procs
        #: persistent genome buffer: one slice-assign per evaluation
        self._cand = ffi.new("int[]", n if n > 0 else 1)
        self._div = ffi.new("int *")
        self._missing = ffi.new("int *")
        self._links = CLinkStateView(self)
        self._procs = CProcStateView(self)

    def set_plan(
        self, pair: int, lids: Sequence[LinkId], speeds: Sequence[float]
    ) -> None:
        """Install the route plan for processor pair ``pair``."""
        rc = lib.ks_set_plan(
            self._ks,
            pair,
            len(lids),
            ffi.new("int[]", list(lids)),
            ffi.new("double[]", list(speeds)),
        )
        if rc != 0:
            raise MemoryError("route-plan allocation failed")

    def evaluate(self, cand: list[int]) -> tuple[float, int, int, int]:
        """Score ``cand``: ``(makespan, divergence, resumed, missing_pair)``.

        Same contract as :meth:`repro.core._kernel.PyKernel.evaluate`, except
        that the C loop always unwinds to the divergence and resumes there.
        """
        n = self._n
        buf = self._cand
        buf[0:n] = cand
        span = lib.ks_evaluate(self._ks, buf, self._div, self._missing)
        missing = self._missing[0]
        divergence = self._div[0]
        if missing == -2:
            raise MemoryError("kernel column allocation failed")
        if missing >= 0:
            return 0.0, divergence, divergence, missing
        return span, divergence, divergence, -1

    # -- introspection (differential tests) ----------------------------------

    @property
    def link_state(self) -> CLinkStateView:
        """Read-only link-column view (differential tests)."""
        return self._links

    @property
    def proc_state(self) -> CProcStateView:
        """Read-only processor-column view (differential tests)."""
        return self._procs


__all__ = ["CKernel", "CLinkStateView", "CProcStateView", "KERNEL_VARIANT", "COMPILED"]
