"""Dominance over :mod:`repro.analysis.cfg` graphs.

:func:`dominators` — "every path from entry to N passes through D" — is how
OBS001 proves an emission can only run under an ``OBS.on`` test.  It is a
forward worklist fixpoint with meet = intersection.  Termination is by the
usual finite-lattice argument: dominator sets only shrink, so each node
re-enters the worklist a bounded number of times.  The CI budget on lint
wall-time (see ``.github/workflows/ci.yml``) backstops the constant.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.cfg import CFG


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


def dominators(cfg: CFG) -> list[set[int]]:
    """``doms[n]`` = nodes on *every* entry->n path (``n`` included).

    Unreachable nodes get the empty set, so "D dominates N" is simply
    ``D in doms[N]`` and is never vacuously true for dead code.  Dead
    predecessors — a ``break`` arm no ``break`` ever jumps to — are left out
    of every meet, so they cannot veto a join they never feed.
    """
    live = reachable(cfg)
    nodes = cfg.nodes
    # Greatest fixpoint: every live node starts at the top element (all
    # live nodes) and only shrinks.
    doms = [frozenset(live)] * len(nodes)
    doms[cfg.entry] = frozenset({cfg.entry})
    work = deque(sorted(live - {cfg.entry}))
    queued = set(work)
    while work:
        index = work.popleft()
        queued.discard(index)
        # A live node other than the entry has at least one live predecessor.
        fact = frozenset.intersection(
            *(doms[p] for p in nodes[index].pred if p in live)
        ) | {index}
        if fact != doms[index]:
            doms[index] = fact
            for succ in nodes[index].succ:
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    return [set(doms[i]) if i in live else set() for i in range(len(nodes))]
