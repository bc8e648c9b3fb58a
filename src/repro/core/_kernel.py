"""The batch-evaluation kernel: `_resimulate`'s arithmetic + journal columns.

This module is the **always-importable pure-Python reference** for the hot
loop that scores mapping candidates in :mod:`repro.core.batch`.  It holds
exactly the state and arithmetic an ahead-of-time compiler needs to see —
and nothing else:

- :class:`ArrayLinkState` / :class:`ArrayProcState` — the flat column
  stores with positional undo journals.
- :class:`PyKernel` — the kernel object driven by
  :class:`~repro.core.batch.BatchMappingEvaluator`: divergence scan,
  rewind (a bulk journal unwind, or a rebuild from position 0 when the
  shared prefix is short), and the fused ``_resimulate`` booking loop
  (bisect gap search, ``cost / speed`` durations, column insert/undo)
  verbatim.

The same state machine exists as a C translation in ``_kernel.c``, built
on demand into the optional extension ``repro.core._kernel_c`` (see
:mod:`repro.core.kernel_build`) and wrapped by
:mod:`repro.core._kernel_cwrap`.  Both implementations satisfy
:class:`KernelProtocol`; :mod:`repro.core.kernelreg` picks one.  The
contract between them is **bit-identity**: the C loop performs the exact
same IEEE-754 double operations in the same order (CPython floats are C
doubles), proven score-by-score and slot-by-slot by
``tests/test_batch_equivalence.py`` and the ``scores_checksum`` CI gates.
The C twin always unwinds to the divergence: the rebuild rule is control
flow, and re-simulating a prefix reproduces its columns exactly, so the
two rewind routes cannot differ in what they leave behind.

Kernel protocol
---------------

Construction fixes the static per-candidate facts as flat arrays (CSR
in-edges, row-major ``exec_flat``); per-processor-pair route plans arrive
later via :meth:`~PyKernel.set_plan` because routes resolve lazily.
:meth:`~PyKernel.evaluate` returns ``(makespan, divergence, resumed,
missing_pair)``: ``divergence`` is the prefix shared with the previous
genome and ``resumed`` the position simulation restarted at (the
divergence, or 0 after a rebuild).  ``missing_pair >= 0`` means simulation
stopped at a pair whose route plan is not resolved yet — the kernel has
rolled back the partial position, and the caller resolves the route and
calls ``evaluate`` again (the retry resumes from the completed prefix).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Protocol, Sequence

from repro.exceptions import SchedulingError
from repro.types import LinkId

#: Identity of this (reference) kernel implementation.
KERNEL_VARIANT = "python"
COMPILED = False

#: ``PyKernel.evaluate`` re-simulates from position 0 instead of unwinding
#: when the prefix shared with the previous genome holds fewer than
#: ``1 / REBUILD_RATIO`` of the link bookings the unwind would undo.  On the
#: first 16 ``search-120`` benchmark instances (2-vCPU x86-64 VM, CPython
#: 3.11) undoing a journal entry cost ~0.2 us, clearing one at mark 0
#: ~0.05 us and re-simulating a booking ~1.4 us.  Both searches' summed
#: time moved by less than 2.5% (about the runs' noise) for ratios 3 to 16;
#: it was 1-2% higher when never rebuilding, 6% higher at ratio 1 and 14%
#: higher when always rebuilding.
REBUILD_RATIO = 3

#: One link's bookings: parallel ``(starts, finishes)`` float columns,
#: sorted by start time (the gap search inserts in order).
LinkColumns = tuple[list[float], list[float]]

#: One route link's scoring view: its two booking columns plus speed.
LinkPlan = tuple[list[float], list[float], float]


class ArrayLinkState:
    """Flat per-link booking columns with a positional undo journal.

    Attributes are public on purpose: the kernel's hot loop appends to the
    journal columns directly instead of paying a method call per booking.
    The invariant it must maintain is the one :meth:`restore` relies on:
    for every booking, ``journal_starts[k][journal_index[k]]`` /
    ``journal_finishes[k][journal_index[k]]`` is the inserted entry, and
    entries are journaled in insertion order.
    """

    __slots__ = ("_columns", "journal_starts", "journal_finishes", "journal_index")

    def __init__(self) -> None:
        self._columns: dict[LinkId, LinkColumns] = {}
        #: journal columns, parallel: the two queue columns written and the
        #: index written at.  ``restore`` undoes them newest-first.
        self.journal_starts: list[list[float]] = []
        self.journal_finishes: list[list[float]] = []
        self.journal_index: list[int] = []

    def columns(self, lid: LinkId) -> LinkColumns:
        """The ``(starts, finishes)`` columns of ``lid``, created on first use.

        Callers keep the returned list references (e.g. in a per-route plan)
        — the columns are mutated in place, never replaced, so the refs stay
        valid for the state's lifetime.
        """
        cols = self._columns.get(lid)
        if cols is None:
            cols = ([], [])
            self._columns[lid] = cols
        return cols

    def booked_links(self) -> list[LinkId]:
        """Link ids with at least one live booking, ascending."""
        return sorted(lid for lid, (s, _f) in self._columns.items() if s)

    def restore(self, mark: int) -> None:
        """Rewind all columns to journal length ``mark`` (O(undone)).

        Entries are undone newest first, and each journal column is then
        truncated with one slice delete.  A rewind to mark 0 empties every
        column in place instead, so list references held by installed route
        plans stay valid.
        """
        journal_index = self.journal_index
        top = len(journal_index)
        if not 0 <= mark <= top:
            raise SchedulingError(f"journal mark {mark} out of range [0, {top}]")
        journal_starts = self.journal_starts
        journal_finishes = self.journal_finishes
        if mark == 0:
            for starts, finishes in self._columns.values():
                del starts[:]
                del finishes[:]
        else:
            newest_first = zip(
                reversed(journal_starts),
                reversed(journal_finishes),
                reversed(journal_index),
            )
            for starts, finishes, i in islice(newest_first, top - mark):
                del starts[i]
                del finishes[i]
        del journal_index[mark:]
        del journal_starts[mark:]
        del journal_finishes[mark:]


class ArrayProcState:
    """Dense per-processor finish-time column with a positional journal.

    The scoring pass books tasks in append mode (``start = max(processor's
    last finish, data-ready)``), so one float per processor — the running
    finish time — is the whole processor state.  The journal records the
    overwritten ``(processor, old finish)`` pair per placement.
    """

    __slots__ = ("finish", "journal_proc", "journal_finish")

    def __init__(self, n_procs: int) -> None:
        if n_procs < 1:
            raise SchedulingError(f"need at least one processor, got {n_procs}")
        #: finish time of the last task placed on each dense processor index
        self.finish: list[float] = [0.0] * n_procs
        self.journal_proc: list[int] = []
        self.journal_finish: list[float] = []

    def restore(self, mark: int) -> None:
        """Rewind the finish column to journal length ``mark``.

        A rewind to mark 0 resets the column to all-idle in place.
        """
        journal_proc = self.journal_proc
        top = len(journal_proc)
        if not 0 <= mark <= top:
            raise SchedulingError(f"journal mark {mark} out of range [0, {top}]")
        journal_finish = self.journal_finish
        finish = self.finish
        if mark == 0:
            finish[:] = [0.0] * len(finish)
        else:
            newest_first = zip(reversed(journal_proc), reversed(journal_finish))
            for pidx, old in islice(newest_first, top - mark):
                finish[pidx] = old
        del journal_proc[mark:]
        del journal_finish[mark:]

    def makespan(self) -> float:
        """Completion time of the busiest processor (0 when all idle)."""
        return max(self.finish)


class LinkStateView(Protocol):
    """Read-only link-column introspection (differential tests)."""

    def columns(self, lid: LinkId) -> LinkColumns: ...

    def booked_links(self) -> list[LinkId]: ...


class ProcStateView(Protocol):
    """Read-only processor-column introspection (differential tests)."""

    @property
    def finish(self) -> list[float]: ...

    def makespan(self) -> float: ...


class KernelProtocol(Protocol):
    """What :class:`~repro.core.batch.BatchMappingEvaluator` drives."""

    variant: str
    compiled: bool

    def set_plan(
        self, pair: int, lids: Sequence[LinkId], speeds: Sequence[float]
    ) -> None: ...

    def evaluate(self, cand: list[int]) -> tuple[float, int, int, int]: ...

    @property
    def link_state(self) -> LinkStateView: ...

    @property
    def proc_state(self) -> ProcStateView: ...


class PyKernel:
    """Reference (pure-Python) implementation of the kernel protocol.

    Static facts arrive as flat arrays so every implementation shares one
    construction signature: ``exec_flat[pos * n_procs + pidx]`` is the
    precomputed ``weight / speed`` execution time, and the in-edges of
    order position ``pos`` are ``edge_src/edge_cost[edge_off[pos] :
    edge_off[pos + 1]]`` (source position, communication cost), sorted by
    source task id at construction of the evaluator.
    """

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
        self._n = n
        self._n_procs = n_procs
        self._exec_flat = exec_flat
        in_edges: list[tuple[tuple[int, float], ...]] = []
        for pos in range(n):
            lo, hi = edge_off[pos], edge_off[pos + 1]
            in_edges.append(
                tuple((edge_src[k], edge_cost[k]) for k in range(lo, hi))
            )
        self._in_edges = in_edges
        self._cut_through = cut_through
        self._hop = hop
        #: route plans per ``src_pidx * P + dst_pidx``, installed by set_plan
        self._plans: list[list[LinkPlan] | None] = [None] * (n_procs * n_procs)
        self._lstate = ArrayLinkState()
        self._pstate = ArrayProcState(n_procs)
        #: finish time per order position of the last simulated candidate.
        #: Overwritten in order during re-simulation, so positions >= the
        #: divergence point are always rewritten before being read — no
        #: journal needed.
        self._task_finish: list[float] = [0.0] * n
        #: dense processor index applied at each simulated order position
        self._applied: list[int] = []
        #: link-journal length captured just before each position; the
        #: processor journal needs no marks — it holds exactly one entry per
        #: position, so its mark at position ``p`` is ``p``.
        self._lmarks: list[int] = []

    def set_plan(
        self, pair: int, lids: Sequence[LinkId], speeds: Sequence[float]
    ) -> None:
        """Install the route plan for processor pair ``pair``."""
        columns = self._lstate.columns
        plan: list[LinkPlan] = []
        for k in range(len(lids)):
            starts, finishes = columns(lids[k])
            plan.append((starts, finishes, speeds[k]))
        self._plans[pair] = plan

    def evaluate(self, cand: list[int]) -> tuple[float, int, int, int]:
        """Score ``cand``: ``(makespan, divergence, resumed, missing_pair)``.

        ``divergence`` is the length of the prefix shared with the
        previously evaluated genome.  The live columns are rewound either to
        that prefix (unwinding the journal) or, when the prefix holds fewer
        than ``1 / REBUILD_RATIO`` of the bookings the unwind would undo, to
        position 0; simulation resumes at ``resumed`` (``divergence`` or 0).
        A ``missing_pair >= 0`` return means position booking hit a
        processor pair with no installed route plan: the partial position
        was rolled back, the makespan is meaningless, and the caller must
        :meth:`set_plan` that pair and call ``evaluate`` again (the retry
        resumes after the completed prefix, without rewinding).
        """
        applied = self._applied
        n_applied = len(applied)
        divergence = n_applied
        for pos in range(n_applied):
            if cand[pos] != applied[pos]:
                divergence = pos
                break
        resumed = divergence
        if divergence < n_applied:
            lmarks = self._lmarks
            kept = lmarks[divergence]
            if kept * REBUILD_RATIO < len(self._lstate.journal_index) - kept:
                resumed = 0
            self._lstate.restore(lmarks[resumed])
            self._pstate.restore(resumed)
            del lmarks[resumed:]
            del applied[resumed:]
        missing = self._resimulate(cand, resumed)
        if missing >= 0:
            return 0.0, divergence, resumed, missing
        return self._pstate.makespan(), divergence, resumed, -1

    def _resimulate(self, cand: list[int], start: int) -> int:
        """Simulate order positions ``start..n`` onto the columns.

        The booking arithmetic is ``schedule_edge_basic``'s verbatim —
        ``find_gap_indexed``'s bisect gap search inlined, ``cost / speed``
        durations, cut-through vs store-and-forward constraint propagation
        — minus the object bookkeeping.  Positions ``< start`` must already
        agree with ``cand`` (the caller rewound to the shared prefix).  Returns the
        first processor pair whose route plan is missing (after undoing the
        partial position), or ``-1`` on completion.
        """
        n = self._n
        n_procs = self._n_procs
        in_edges = self._in_edges
        exec_flat = self._exec_flat
        task_finish = self._task_finish
        plans = self._plans
        lstate = self._lstate
        journal_starts = lstate.journal_starts
        journal_finishes = lstate.journal_finishes
        journal_index = lstate.journal_index
        lmarks = self._lmarks
        pstate = self._pstate
        proc_finish = pstate.finish
        journal_proc = pstate.journal_proc
        journal_old = pstate.journal_finish
        applied = self._applied
        cut_through = self._cut_through
        hop = self._hop
        for pos in range(start, n):
            pidx = cand[pos]
            lmark = len(journal_index)
            lmarks.append(lmark)
            applied.append(pidx)
            t_dr = 0.0
            for src_pos, cost in in_edges[pos]:
                ready = task_finish[src_pos]
                src_pidx = cand[src_pos]
                if src_pidx == pidx or cost <= 0.0:
                    if ready > t_dr:
                        t_dr = ready
                    continue
                plan = plans[src_pidx * n_procs + pidx]
                if plan is None:
                    lstate.restore(lmark)
                    del lmarks[-1]
                    del applied[-1]
                    return src_pidx * n_procs + pidx
                est = ready
                min_finish = 0.0
                arrival = ready
                for starts, finishes, speed in plan:
                    duration = cost / speed
                    floor = min_finish - duration
                    lo = est if est >= floor else floor
                    n_booked = len(starts)
                    i = bisect_left(starts, lo + duration)
                    prev_finish = finishes[i - 1] if i > 0 else 0.0
                    while True:
                        slot_start = prev_finish if prev_finish > lo else lo
                        arrival = slot_start + duration
                        if i >= n_booked or arrival <= starts[i]:
                            break
                        prev_finish = finishes[i]
                        i += 1
                    starts.insert(i, slot_start)
                    finishes.insert(i, arrival)
                    journal_starts.append(starts)
                    journal_finishes.append(finishes)
                    journal_index.append(i)
                    if cut_through:
                        est = slot_start + hop
                        min_finish = arrival + hop
                    else:
                        est = arrival + hop
                        min_finish = 0.0
                if arrival > t_dr:
                    t_dr = arrival
            last_finish = proc_finish[pidx]
            journal_proc.append(pidx)
            journal_old.append(last_finish)
            task_start = last_finish if last_finish > t_dr else t_dr
            finish = task_start + exec_flat[pos * n_procs + pidx]
            proc_finish[pidx] = finish
            task_finish[pos] = finish
        return -1

    # -- introspection (differential tests) ----------------------------------

    @property
    def link_state(self) -> ArrayLinkState:
        """The live link columns (read-only use: differential tests)."""
        return self._lstate

    @property
    def proc_state(self) -> ArrayProcState:
        """The live processor column (read-only use: differential tests)."""
        return self._pstate
