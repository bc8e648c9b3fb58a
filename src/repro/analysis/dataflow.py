"""Worklist dataflow over :mod:`repro.analysis.cfg` graphs.

One generic fixpoint engine (:func:`fixpoint`) and the two analyses the
flow rules are built from:

- :func:`dominators` — forward, meet = intersection.  "Every path from
  entry to N passes through D" is how OBS001 proves an emission can only
  run under an ``OBS.on`` test, and how TXN103 proves a ``rollback()`` is
  always preceded by its ``begin()``.
- :func:`all_paths_reach` — backward, meet = conjunction.  The
  "must-reach" query behind TXN101: from this ``begin()``, does *every*
  path — including the exception edges — hit a ``commit()``/``rollback()``
  before leaving the function?

Both iterate to a fixpoint with a FIFO worklist.  Termination is by the
usual finite-lattice argument: node facts only move one way (sets only
shrink under intersection, booleans only fall), so each node re-enters the
worklist a bounded number of times.  The CI budget on lint wall-time (see
``.github/workflows/ci.yml``) backstops the constant.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TypeVar

from repro.analysis.cfg import CFG

T = TypeVar("T")


def reachable(cfg: CFG) -> set[int]:
    """Node indices reachable from the entry node."""
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.nodes[stack.pop()].succ:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def fixpoint(
    cfg: CFG,
    *,
    direction: str,
    init: Callable[[int], T],
    transfer: Callable[[int, T], T],
    meet: Callable[[list[T]], T],
    boundary: T,
    live: set[int] | None = None,
) -> list[T]:
    """Generic worklist fixpoint; returns the *out*-fact of every node.

    ``direction`` is ``"forward"`` (facts flow entry -> exit along ``succ``)
    or ``"backward"`` (exit -> entry along ``pred``).  For each node the
    engine meets the out-facts of its CFG predecessors (forward) or
    successors (backward) — ``boundary`` when there are none — and applies
    ``transfer(index, in_fact)``.  ``init`` seeds every node's out-fact;
    seeding with the top element makes the engine compute a greatest
    fixpoint (dominators, must-reach), seeding with bottom a least one.

    ``live`` restricts the analysis to a node subset: excluded nodes are
    never transferred and never contribute to a meet.  Must-analyses (meet
    = intersection) need this to keep dead edges — a ``break`` arm no
    ``break`` ever jumps to — from poisoning real join points.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward|backward, got {direction!r}")
    forward = direction == "forward"
    n = len(cfg.nodes)
    out: list[T] = [init(i) for i in range(n)]
    members = sorted(live) if live is not None else range(n)
    work: deque[int] = deque(members)
    queued = [False] * n
    for i in work:
        queued[i] = True
    while work:
        index = work.popleft()
        queued[index] = False
        node = cfg.nodes[index]
        edges_in = node.pred if forward else node.succ
        edges_out = node.succ if forward else node.pred
        if live is not None:
            edges_in = [e for e in edges_in if e in live]
            edges_out = [e for e in edges_out if e in live]
        fact_in = meet([out[p] for p in edges_in]) if edges_in else boundary
        fact_out = transfer(index, fact_in)
        if fact_out != out[index]:
            out[index] = fact_out
            for nxt in edges_out:
                if not queued[nxt]:
                    queued[nxt] = True
                    work.append(nxt)
    return out


# -- dominance -----------------------------------------------------------------


def dominators(cfg: CFG) -> list[set[int]]:
    """``doms[n]`` = nodes on *every* entry->n path (``n`` included).

    Unreachable nodes get the empty set, so "D dominates N" is simply
    ``D in doms[N]`` and is never vacuously true for dead code.
    """
    live = reachable(cfg)
    everything = frozenset(live)
    entry_fact = frozenset({cfg.entry})

    def init(index: int) -> frozenset[int]:
        return entry_fact if index == cfg.entry else everything

    def meet(facts: list[frozenset[int]]) -> frozenset[int]:
        fact = facts[0]
        for other in facts[1:]:
            fact &= other
        return fact

    def transfer(index: int, fact_in: frozenset[int]) -> frozenset[int]:
        if index == cfg.entry:
            return entry_fact
        return fact_in | {index}

    out = fixpoint(
        cfg,
        direction="forward",
        init=init,
        transfer=transfer,
        meet=meet,
        boundary=everything,
        live=live,
    )
    return [set(out[i]) if i in live else set() for i in range(len(cfg.nodes))]


# -- must-reach ----------------------------------------------------------------


def all_paths_reach(cfg: CFG, targets: set[int]) -> list[bool]:
    """``ok[n]``: every maximal path starting at ``n`` visits a target.

    Counted inclusively — a node that *is* a target satisfies the query
    itself.  Computed as a greatest fixpoint, so a path trapped forever in
    a target-free cycle still satisfies the query (it never *leaves* the
    function, which is what the transaction rules care about: only an exit
    can leak).  Dead arms are excluded via ``live`` so they cannot veto a
    join they can never actually feed.
    """
    live = reachable(cfg)

    def transfer(index: int, fact_in: bool) -> bool:
        if index in targets:
            return True
        if not cfg.nodes[index].succ:
            return False  # exits the function without meeting a target
        return fact_in

    return fixpoint(
        cfg,
        direction="backward",
        init=lambda i: True,
        transfer=transfer,
        meet=lambda facts: all(facts),
        boundary=False,
        live=live,
    )
