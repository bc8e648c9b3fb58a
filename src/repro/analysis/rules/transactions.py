"""Transaction-safety rules for the link-schedule undo log (PR 3).

``LinkScheduleState`` keeps rollback correct by recording an inverse for
every write *inside its public write methods*.  Two kinds of rule guard
that contract:

- **TXN001** (representation) — touching the private containers
  (``_queues``/``_routes``/``_next_link``/``_undo``) from outside
  ``state.py`` bypasses the undo log and corrupts any open transaction.
  Reads are flagged too: they couple callers to the representation, so
  each deliberate hot-path read carries an inline suppression with its
  reason, as the Lemma-2 slack scan in ``optimal_insertion.py`` does.
- **TXN101 / TXN103** (flow-sensitive, on the CFG of
  :mod:`repro.analysis.cfg` with the fixpoints of
  :mod:`repro.analysis.dataflow`):

  - **TXN101** — from every successful ``X.begin()``, *every* path to the
    function exit — normal, early-return, ``break``, and the exception
    edges of everything that can raise mid-probe — passes a ``X.commit()``
    or ``X.rollback()``.  The exception edge of the ``begin()`` itself is
    exempt: a ``begin()`` that raises opened nothing.
  - **TXN103** — a ``X.commit()``/``X.rollback()`` must be *dominated* by
    a ``X.begin()`` on the same receiver: on every path that reaches the
    closer, the transaction it closes was actually opened.  Closing an
    unopened transaction raises ``SchedulingError`` at runtime — in the
    middle of a probe loop, long after the real bug.

  These replaced the syntactic TXN002/TXN003, which were blind to paths:
  a rollback in a branch that an early ``return`` skips satisfied them,
  and an exception-safe idiom they did not anticipate failed them.

Receivers are matched by dotted expression text (``self._lstate``,
``state``): transaction state objects are held in locals or attributes,
not computed.
"""

from __future__ import annotations

import ast

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import all_paths_reach, dominators
from repro.analysis.engine import LintContext, Rule, dotted, register, scopes

#: Private containers of LinkScheduleState; writes outside state.py bypass
#: the undo log, reads freeze the representation.
PRIVATE_STATE_ATTRS = frozenset({"_queues", "_routes", "_next_link", "_undo"})

_BEGIN = frozenset({"begin"})
_CLOSERS = frozenset({"commit", "rollback"})


@register
class StateInternalsRule(Rule):
    """Only ``linksched/state.py`` may touch the undo-logged containers."""

    rule_id = "TXN001"
    name = "link-state-internals"
    summary = "access to LinkScheduleState private containers outside state.py"
    rationale = (
        "Public write methods append undo-log inverses; a direct write to "
        "_queues/_routes/_next_link corrupts rollback of any open "
        "transaction.  Deliberate hot-path reads (the hoisted Lemma-2 scan) "
        "carry an inline `# repro-lint: disable=TXN001 (reason)`."
    )
    include = ("repro",)
    exclude = ("repro/linksched/state.py",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_STATE_ATTRS
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            ):
                ctx.report(
                    self,
                    node,
                    f"access to LinkScheduleState internals "
                    f"`{dotted(node.value)}.{node.attr}` bypasses the "
                    "undo-log API; use the public methods",
                )
            elif isinstance(node, ast.Name) and node.id == "_LinkQueue":
                ctx.report(
                    self,
                    node,
                    "_LinkQueue is private to linksched/state.py; construct "
                    "queues through LinkScheduleState",
                )
            elif isinstance(node, ast.ImportFrom) and any(
                a.name == "_LinkQueue" for a in node.names
            ):
                ctx.report(
                    self,
                    node,
                    "_LinkQueue is private to linksched/state.py; import the "
                    "public LinkScheduleState API instead",
                )


def _call_sites(
    cfg: CFG, names: frozenset[str], *, bare: bool = False
) -> list[tuple[int, ast.Call, str, str]]:
    """Every ``<recv>.<name>(...)`` call: (node index, call, receiver, method).

    ``bare`` keeps only calls without arguments (``begin()``, not some
    unrelated ``begin(x)``).
    """
    sites = []
    for node in cfg.nodes:
        for call in cfg.calls_at(node.index):
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr in names):
                continue
            if bare and (call.args or call.keywords):
                continue
            sites.append((node.index, call, dotted(func.value), func.attr))
    return sites


@register
class TransactionBalanceRule(Rule):
    """Every ``begin()`` reaches ``commit()``/``rollback()`` on all paths."""

    rule_id = "TXN101"
    name = "transaction-leak-path"
    summary = ".begin() with a path (incl. exception edges) that exits uncommitted"
    rationale = (
        "Transactions do not nest: one leaked begin() makes every later "
        "probe's begin() raise, and the tentative slots it booked stay in "
        "the committed schedule.  The flow check walks every CFG path — "
        "early returns, breaks, and the exception edge of each statement "
        "that can raise mid-probe — so the begin/try/finally-rollback probe "
        "idiom passes and everything weaker does not."
    )
    include = ("repro",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for scope in scopes(tree):
            cfg = ctx.cfg(scope)
            begins = _call_sites(cfg, _BEGIN, bare=True)
            if not begins:
                continue
            closers = _call_sites(cfg, _CLOSERS)
            for index, call, receiver, _method in begins:
                targets = {i for i, _c, recv, _m in closers if recv == receiver}
                ok = all_paths_reach(cfg, targets)
                node = cfg.nodes[index]
                balanced = node.normal_succ and all(
                    ok[s] for s in node.normal_succ
                )
                if not balanced:
                    ctx.report(
                        self,
                        call,
                        f"`{receiver}.begin()` can exit the function without "
                        f"`{receiver}.commit()`/`{receiver}.rollback()` on "
                        "some path (exception edges count); wrap the "
                        "tentative work in try/finally",
                    )


@register
class CloserWithoutBeginRule(Rule):
    """``commit()``/``rollback()`` must be dominated by its ``begin()``."""

    rule_id = "TXN103"
    name = "closer-without-begin"
    summary = ".commit()/.rollback() not dominated by a begin() on the receiver"
    rationale = (
        "A closer on a path where no begin() ran raises SchedulingError "
        "('no open transaction') at runtime, typically deep in a probe "
        "loop.  Dominance is the right check: the begin must precede the "
        "closer on every path that reaches it, not merely somewhere in "
        "the same function."
    )
    include = ("repro",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for scope in scopes(tree):
            cfg = ctx.cfg(scope)
            closers = _call_sites(cfg, _CLOSERS, bare=True)
            if not closers:
                continue
            begins = _call_sites(cfg, _BEGIN)
            doms = None
            for index, call, receiver, method in closers:
                openers = {i for i, _c, recv, _m in begins if recv == receiver}
                if not openers:
                    ctx.report(
                        self,
                        call,
                        f"`{receiver}.{method}()` closes a transaction this "
                        "function never opens; either open it here or pass "
                        "the closing responsibility to the opener",
                    )
                    continue
                if doms is None:
                    doms = dominators(cfg)
                if not openers & doms[index]:
                    ctx.report(
                        self,
                        call,
                        f"`{receiver}.{method}()` is reachable on a path "
                        f"where no `{receiver}.begin()` ran; a closer must "
                        "be dominated by its opener",
                    )
