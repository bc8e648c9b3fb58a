"""TXN1xx: flow-sensitive transaction balance on the undo-log states.

PR 4's TXN002/TXN003 approximated transaction balance *syntactically*: "a
``begin()`` needs a ``commit()``/``rollback()`` somewhere in the function"
and "``rollback()`` belongs in a ``finally``/``except``".  Both rules are
blind to paths — a rollback sitting in a branch that an early ``return``
skips satisfied them, and a perfectly exception-safe idiom they did not
anticipate (commit on the straight line of a function whose tail cannot
raise) failed them.  This module replaces them with the real property,
checked on the CFG (:mod:`repro.analysis.cfg`) with must-reach dataflow
(:mod:`repro.analysis.dataflow`):

- **TXN101** — from every successful ``X.begin()``, *every* path to the
  function exit — normal, early-return, ``break``, and the exception edges
  of everything that can raise mid-probe — passes a ``X.commit()`` or
  ``X.rollback()``.  The exception edge of the ``begin()`` itself is
  exempt: a ``begin()`` that raises opened nothing.
- **TXN102** — a column-journal mark captured into a local
  (``m = X.snapshot()``) must reach a ``X.restore(m)`` on every path,
  *unless the mark escapes* (stored in a container or attribute, passed to
  another call, returned): escaped marks are checkpoint book-keeping — the
  batch kernel's per-position ``_lmarks`` list — whose balance is a
  cross-call protocol, not a per-function property.
- **TXN103** — a ``X.commit()``/``X.rollback()`` must be *dominated* by a
  ``X.begin()`` on the same receiver: on every path that reaches the
  closer, the transaction it closes was actually opened.  Closing an
  unopened transaction raises ``SchedulingError`` at runtime — in the
  middle of a probe loop, long after the real bug.

Receivers are matched by dotted expression text (``self._lstate``,
``state``), the same approximation the syntactic rules used: transaction
state objects are held in locals or attributes, not computed.
"""

from __future__ import annotations

import ast

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import (
    all_paths_reach,
    dominators,
    reaching_definitions,
)
from repro.analysis.engine import LintContext, Rule, dotted, register, scopes

#: transaction openers -> their closers
_TXN_CLOSERS = frozenset({"commit", "rollback"})
#: journal-mark producers -> their consumers
_MARK_PRODUCERS = frozenset({"snapshot"})
_MARK_CONSUMERS = frozenset({"restore"})


def _method_call(call: ast.Call, names: frozenset[str]) -> tuple[str, str] | None:
    """``(receiver, method)`` when ``call`` is ``<receiver>.<name>(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in names:
        return dotted(func.value), func.attr
    return None


def _call_sites(
    cfg: CFG, names: frozenset[str]
) -> list[tuple[int, ast.Call, str, str]]:
    """Every ``<recv>.<name>()`` call: (node index, call, receiver, method)."""
    sites = []
    for node in cfg.nodes:
        for call in cfg.calls_at(node.index):
            hit = _method_call(call, names)
            if hit is not None:
                sites.append((node.index, call, hit[0], hit[1]))
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
            begins = _call_sites(cfg, frozenset({"begin"}))
            begins = [
                (i, c, recv, m)
                for i, c, recv, m in begins
                if not c.args and not c.keywords
            ]
            if not begins:
                continue
            closers = _call_sites(cfg, _TXN_CLOSERS)
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
class JournalMarkBalanceRule(Rule):
    """Local journal marks must reach their ``restore``."""

    rule_id = "TXN102"
    name = "journal-mark-leak-path"
    summary = "a local snapshot() mark with a path that never restores it"
    rationale = (
        "A mark captured for a trial placement and then dropped on some "
        "path leaves the journal (and the columns it guards) holding the "
        "trial's writes — the next evaluation scores a corrupted prefix.  "
        "Marks that escape into containers/attributes (the batch kernel's "
        "lmarks checkpoints) are cross-call protocol, not per-function "
        "balance, and are exempt."
    )
    include = ("repro",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for scope in scopes(tree):
            if isinstance(scope, ast.Module):
                continue
            cfg = ctx.cfg(scope)
            marks = self._local_marks(cfg)
            if not marks:
                continue
            consumers = _call_sites(cfg, _MARK_CONSUMERS)
            reaching = None
            for index, call, receiver, var in marks:
                if self._escapes(scope, call, var):
                    continue
                if reaching is None:
                    reaching = reaching_definitions(cfg)
                targets = {
                    i
                    for i, c, recv, _m in consumers
                    if recv == receiver
                    and len(c.args) == 1
                    and isinstance(c.args[0], ast.Name)
                    and c.args[0].id == var
                    and (var, index) in reaching[i]
                }
                ok = all_paths_reach(cfg, targets)
                node = cfg.nodes[index]
                balanced = node.normal_succ and all(
                    ok[s] for s in node.normal_succ
                )
                if not balanced:
                    ctx.report(
                        self,
                        call,
                        f"journal mark `{var}` from `{receiver}."
                        f"{call.func.attr}()` is not restored on every path "  # type: ignore[union-attr]
                        f"(`{receiver}.restore({var})` missing "
                        "or unreachable); rewind in a finally",
                    )

    @staticmethod
    def _local_marks(cfg: CFG) -> list[tuple[int, ast.Call, str, str]]:
        """``var = X.snapshot()`` sites: (node, call, receiver, var name)."""
        out = []
        for node in cfg.nodes:
            stmt = node.ast_node
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            hit = _method_call(stmt.value, _MARK_PRODUCERS)
            if hit is not None and not stmt.value.args:
                out.append((node.index, stmt.value, hit[0], stmt.targets[0].id))
        return out

    @staticmethod
    def _escapes(scope: ast.AST, mark_call: ast.Call, var: str) -> bool:
        """Whether ``var`` is used anywhere except as a restore argument."""
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Name) and node.id == var):
                continue
            if isinstance(node.ctx, ast.Store):
                continue
            parent_ok = False
            # The only sanctioned load is `recv.restore(var)`;
            # any other load — append argument, return value, arithmetic —
            # means the mark's lifetime leaves this function's control flow.
            # (Parent lookup via a local walk keeps this scope-independent.)
            for candidate in ast.walk(scope):
                if (
                    isinstance(candidate, ast.Call)
                    and node in candidate.args
                    and _method_call(candidate, _MARK_CONSUMERS) is not None
                ):
                    parent_ok = True
                    break
            if not parent_ok:
                return True
        return False


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
            closers = _call_sites(cfg, _TXN_CLOSERS)
            closers = [
                (i, c, recv, m)
                for i, c, recv, m in closers
                if not c.args and not c.keywords
            ]
            if not closers:
                continue
            begins = _call_sites(cfg, frozenset({"begin"}))
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
