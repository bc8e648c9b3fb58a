"""Per-function control-flow graphs for the flow-sensitive lint rules.

Per-line rules see one statement at a time; an invariant such as "this
emission only runs when ``OBS.on`` held" is a property of *paths*, not
lines.  This module lowers one function (or the module body) into a
statement-level CFG whose dominators :mod:`repro.analysis.dataflow`
computes.

Design notes:

- **Statement granularity.**  One node per simple statement, plus explicit
  nodes for every control evaluation point (an ``if``/``while`` test, a
  ``for`` header, a ``with`` context expression, an ``except`` head).  The
  files under analysis are a few hundred statements; basic-block compression
  would buy nothing and cost every rule a block-offset bookkeeping layer.
- **Branch arms are synthetic nodes.**  Every conditional edge is routed
  through an ``arm`` node (``kind="arm"``) recording which test it leaves
  and on which outcome.  Arm nodes are the *edge splitting* that makes
  dominance-based queries exact: "is this emission dominated by the true
  arm of an ``OBS.on`` test" is a plain node-dominance question, immune to
  the join-point aliasing a test-node-only encoding suffers.
- **Exception edges.**  Any statement that can plausibly raise (calls,
  attribute/subscript access, arithmetic, ``raise``/``assert``) gets an
  edge to the innermost enclosing handler — the first ``except`` head, a
  ``finally`` entry, or the function exit.  This is deliberately
  conservative: a handler is dominated only by what precedes every
  statement of its ``try`` body that may raise, so a guard test inside the
  body never counts as guarding the handler.
- **``finally`` is single-copy.**  A ``finally`` body appears once, with a
  synthetic ``finexit`` dispatch node fanning out to every continuation
  that can run it (normal fall-through, exception re-raise, routed
  ``return``/``break``/``continue``).  This conflates the paths *through*
  the finally region — strictly more paths than the program has, so
  all-path ("must") queries stay sound; they can only get more demanding.

``try``/``except`` matching is also conservative: an exception may enter
any handler head, and handler heads chain (no match falls through to the
next head, then out of the statement).  The CFG has no opinion on exception
*types*.
"""

from __future__ import annotations

import ast
from typing import Iterator

#: AST scopes a CFG can be built for.
Scope = ast.Module | ast.FunctionDef | ast.AsyncFunctionDef

#: Statement types that never raise by themselves (their expressions might).
_NO_RAISE_STMTS = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)

#: Expression node types that can plausibly raise at evaluation time.
_RAISING_EXPRS = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.UnaryOp,
    ast.Compare,
    ast.Await,
    ast.Yield,
    ast.YieldFrom,
    ast.Starred,
)


class CFGNode:
    """One evaluation point in the graph.

    ``kind`` is one of ``entry``/``exit``/``stmt``/``test``/``for``/
    ``with``/``except``/``arm``/``finally``/``finexit``.  ``ast_node`` is
    the statement (or handler/withitem) the node represents — ``None`` for
    synthetic nodes.  ``exprs`` are the expressions *evaluated at* this
    node (an ``if`` node evaluates its test, not its body), which is what
    call-matching predicates should search.
    """

    __slots__ = (
        "index",
        "kind",
        "ast_node",
        "exprs",
        "succ",
        "pred",
        "branch",
        "test",
    )

    def __init__(
        self,
        index: int,
        kind: str,
        ast_node: ast.AST | None = None,
        exprs: tuple[ast.expr, ...] = (),
        branch: str = "",
        test: int = -1,
    ) -> None:
        self.index = index
        self.kind = kind
        self.ast_node = ast_node
        self.exprs = exprs
        self.succ: list[int] = []
        self.pred: list[int] = []
        #: for ``arm`` nodes: which outcome of ``test`` this arm is
        #: (``"true"``/``"false"``/``"iter"``/``"exhaust"``/``"break"``)
        self.branch = branch
        #: for ``arm`` nodes: index of the test/header node they leave
        self.test = test

    @property
    def lineno(self) -> int:
        return getattr(self.ast_node, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = type(self.ast_node).__name__ if self.ast_node is not None else ""
        extra = f" {self.branch}@{self.test}" if self.kind == "arm" else ""
        return f"<CFGNode {self.index} {self.kind} {tag}{extra} -> {self.succ}>"


class CFG:
    """Control-flow graph of one function body (or the module top level)."""

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        self.nodes: list[CFGNode] = []
        self.entry = self._new("entry").index
        self.exit = self._new("exit").index

    # -- construction (used by _Builder) --------------------------------------

    def _new(
        self,
        kind: str,
        ast_node: ast.AST | None = None,
        exprs: tuple[ast.expr, ...] = (),
        branch: str = "",
        test: int = -1,
    ) -> CFGNode:
        node = CFGNode(len(self.nodes), kind, ast_node, exprs, branch, test)
        self.nodes.append(node)
        return node

    def _edge(self, src: int, dst: int) -> None:
        """Add the edge ``src -> dst`` unless it is already there."""
        node = self.nodes[src]
        if dst not in node.succ:
            node.succ.append(dst)
            self.nodes[dst].pred.append(src)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def calls_at(self, index: int) -> Iterator[ast.Call]:
        """Every call evaluated *at* node ``index`` (lambda bodies excluded)."""
        for expr in self.nodes[index].exprs:
            yield from _calls_in(expr)

    def arms_of(self, test_index: int) -> list[CFGNode]:
        """The synthetic arm nodes leaving test/header node ``test_index``."""
        return [
            self.nodes[i]
            for i in self.nodes[test_index].succ
            if self.nodes[i].kind == "arm"
        ]


def _calls_in(expr: ast.expr) -> Iterator[ast.Call]:
    """Calls evaluated when ``expr`` is — skips deferred lambda bodies."""
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def may_raise(stmt: ast.AST, exprs: tuple[ast.expr, ...]) -> bool:
    """Whether evaluating ``stmt`` (with expressions ``exprs``) can raise.

    Conservative by design: calls, attribute and subscript access,
    arithmetic and comparisons may all raise, and those cover every way the
    scheduling code exits a probe early.  Plain constant/name moves,
    ``pass``-likes and scope declarations cannot.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, _NO_RAISE_STMTS):
        return False
    if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Delete)):
        return True
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, _RAISING_EXPRS):
                return True
    return False


def _stmt_exprs(stmt: ast.stmt) -> tuple[ast.expr, ...]:
    """The expressions a simple statement evaluates (targets included)."""
    out: list[ast.expr] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            out.append(child)
    return tuple(out)


class _FinallyCtx:
    """One open ``finally`` region, targetable before its body is lowered."""

    __slots__ = ("entry", "finexit", "pending")

    def __init__(self, entry: int, finexit: int) -> None:
        self.entry = entry
        self.finexit = finexit
        #: extra continuations the dispatch node must fan out to (routed
        #: return/break/continue and exception propagation)
        self.pending: set[int] = set()


class _LoopCtx:
    """Targets for ``break``/``continue``, plus the finally depth at entry."""

    __slots__ = ("continue_target", "break_arm", "fin_depth")

    def __init__(self, continue_target: int, break_arm: int, fin_depth: int) -> None:
        self.continue_target = continue_target
        self.break_arm = break_arm
        self.fin_depth = fin_depth


class _Builder:
    """Lowers one scope's statement list into a :class:`CFG`."""

    def __init__(self, scope: Scope) -> None:
        self.cfg = CFG(scope)
        self._loops: list[_LoopCtx] = []
        self._finallies: list[_FinallyCtx] = []
        #: innermost exception continuation (handler head / finally / exit)
        self._raise_targets: list[int] = [self.cfg.exit]

    def build(self) -> CFG:
        body = self.cfg.scope.body
        frontier = self._lower_block(body, [self.cfg.entry])
        for index in frontier:
            self.cfg._edge(index, self.cfg.exit)
        return self.cfg

    # -- plumbing --------------------------------------------------------------

    def _raise_edge(self, index: int) -> None:
        """Add the edge taken when node ``index`` raises."""
        self.cfg._edge(index, self._raise_targets[-1])

    def _route_jump(self, src: int, target: int, fin_depth: int) -> None:
        """Edge ``src`` to ``target`` through every finally opened past
        ``fin_depth`` (innermost first), registering dispatch continuations."""
        chain = self._finallies[fin_depth:]
        if not chain:
            self.cfg._edge(src, target)
            return
        self.cfg._edge(src, chain[-1].entry)
        for outer, inner in zip(chain, chain[1:]):
            inner.pending.add(outer.entry)
        chain[0].pending.add(target)

    # -- statement lowering ----------------------------------------------------

    def _lower_block(self, stmts: list[ast.stmt], preds: list[int]) -> list[int]:
        """Lower a statement list; returns the fall-through frontier."""
        frontier = preds
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self._lower_stmt(stmt, frontier)
        return frontier

    def _lower_stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, preds)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._lower_loop(stmt, preds)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._lower_try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._lower_with(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._lower_match(stmt, preds)

        exprs = _stmt_exprs(stmt)
        node = cfg._new("stmt", stmt, exprs)
        for p in preds:
            cfg._edge(p, node.index)
        if may_raise(stmt, exprs):
            self._raise_edge(node.index)

        if isinstance(stmt, ast.Return):
            self._route_jump(node.index, cfg.exit, 0)
            return []
        if isinstance(stmt, ast.Raise):
            return []
        if isinstance(stmt, ast.Break):
            loop = self._loops[-1]
            self._route_jump(node.index, loop.break_arm, loop.fin_depth)
            return []
        if isinstance(stmt, ast.Continue):
            loop = self._loops[-1]
            self._route_jump(node.index, loop.continue_target, loop.fin_depth)
            return []
        return [node.index]

    def _lower_if(self, stmt: ast.If, preds: list[int]) -> list[int]:
        cfg = self.cfg
        test = cfg._new("test", stmt, (stmt.test,))
        for p in preds:
            cfg._edge(p, test.index)
        if may_raise(stmt, (stmt.test,)):
            self._raise_edge(test.index)
        true_arm = cfg._new("arm", branch="true", test=test.index)
        false_arm = cfg._new("arm", branch="false", test=test.index)
        cfg._edge(test.index, true_arm.index)
        cfg._edge(test.index, false_arm.index)
        frontier = self._lower_block(stmt.body, [true_arm.index])
        frontier += self._lower_block(stmt.orelse, [false_arm.index])
        return frontier

    def _lower_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, preds: list[int]
    ) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.While):
            header = cfg._new("test", stmt, (stmt.test,))
            body_branch = "true"
            exit_branch = "false"
        else:
            header = cfg._new("for", stmt, (stmt.iter, stmt.target))
            body_branch = "iter"
            exit_branch = "exhaust"
        for p in preds:
            cfg._edge(p, header.index)
        if may_raise(stmt, header.exprs):
            self._raise_edge(header.index)
        body_arm = cfg._new("arm", branch=body_branch, test=header.index)
        exit_arm = cfg._new("arm", branch=exit_branch, test=header.index)
        break_arm = cfg._new("arm", branch="break", test=header.index)
        cfg._edge(header.index, body_arm.index)
        cfg._edge(header.index, exit_arm.index)
        self._loops.append(
            _LoopCtx(header.index, break_arm.index, len(self._finallies))
        )
        body_frontier = self._lower_block(stmt.body, [body_arm.index])
        self._loops.pop()
        for index in body_frontier:
            cfg._edge(index, header.index)  # back edge
        # while/for ``else`` runs only on normal exhaustion; break skips it.
        else_frontier = self._lower_block(stmt.orelse, [exit_arm.index])
        frontier = else_frontier + [break_arm.index]
        return frontier

    def _lower_with(self, stmt: ast.With | ast.AsyncWith, preds: list[int]) -> list[int]:
        cfg = self.cfg
        frontier = preds
        for item in stmt.items:
            exprs: tuple[ast.expr, ...] = (item.context_expr,)
            if item.optional_vars is not None:
                exprs += (item.optional_vars,)
            node = cfg._new("with", item, exprs)
            for p in frontier:
                cfg._edge(p, node.index)
            self._raise_edge(node.index)  # __enter__ may raise
            frontier = [node.index]
        return self._lower_block(stmt.body, frontier)

    def _lower_match(self, stmt: ast.Match, preds: list[int]) -> list[int]:
        cfg = self.cfg
        header = cfg._new("test", stmt, (stmt.subject,))
        for p in preds:
            cfg._edge(p, header.index)
        if may_raise(stmt, (stmt.subject,)):
            self._raise_edge(header.index)
        frontier: list[int] = []
        for case in stmt.cases:
            arm = cfg._new("arm", branch="case", test=header.index)
            cfg._edge(header.index, arm.index)
            start = [arm.index]
            if case.guard is not None:
                guard = cfg._new("test", case, (case.guard,))
                cfg._edge(arm.index, guard.index)
                if may_raise(stmt, (case.guard,)):
                    self._raise_edge(guard.index)
                start = [guard.index]
            frontier += self._lower_block(case.body, start)
        # conservative: the subject may match no case at all
        fall_arm = cfg._new("arm", branch="nomatch", test=header.index)
        cfg._edge(header.index, fall_arm.index)
        frontier.append(fall_arm.index)
        return frontier

    def _lower_try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        cfg = self.cfg
        fin_ctx: _FinallyCtx | None = None
        if stmt.finalbody:
            fin_entry = cfg._new("finally", stmt)
            finexit = cfg._new("finexit", stmt)
            fin_ctx = _FinallyCtx(fin_entry.index, finexit.index)
            self._finallies.append(fin_ctx)

        # Exceptions in the body go to the first handler head; with no
        # handlers they run the finally, then propagate outward.
        handler_heads: list[CFGNode] = []
        for handler in stmt.handlers:
            exprs = (handler.type,) if handler.type is not None else ()
            handler_heads.append(cfg._new("except", handler, exprs))
        if handler_heads:
            body_raise_target = handler_heads[0].index
        elif fin_ctx is not None:
            body_raise_target = fin_ctx.entry
            fin_ctx.pending.add(self._raise_targets[-1])
        else:  # pragma: no cover - ``try:`` needs a handler or finally
            body_raise_target = self._raise_targets[-1]

        self._raise_targets.append(body_raise_target)
        body_frontier = self._lower_block(stmt.body, preds)
        self._raise_targets.pop()

        # ``else`` runs after a no-exception body; its exceptions skip the
        # handlers of this try.
        body_frontier = self._lower_block(stmt.orelse, body_frontier)

        # Handler bodies: exceptions inside them propagate outward (through
        # the finally when present); an unmatched exception falls to the
        # next head, and past the last head out of the statement.
        outer_target = self._raise_targets[-1]
        handler_raise_target = fin_ctx.entry if fin_ctx is not None else outer_target
        if fin_ctx is not None:
            fin_ctx.pending.add(outer_target)
        handler_frontier: list[int] = []
        self._raise_targets.append(handler_raise_target)
        for head, handler in zip(handler_heads, stmt.handlers):
            handler_frontier += self._lower_block(handler.body, [head.index])
        self._raise_targets.pop()
        for head, next_head in zip(handler_heads, handler_heads[1:]):
            cfg._edge(head.index, next_head.index)
        if handler_heads:
            cfg._edge(handler_heads[-1].index, handler_raise_target)

        frontier = body_frontier + handler_frontier
        if fin_ctx is None:
            return frontier

        # Normal continuations run the finally body, then fall through the
        # dispatch node; routed jumps and propagation fan out from it too.
        self._finallies.pop()
        for index in frontier:
            cfg._edge(index, fin_ctx.entry)
        fin_frontier = self._lower_block(stmt.finalbody, [fin_ctx.entry])
        for index in fin_frontier:
            cfg._edge(index, fin_ctx.finexit)
        for target in sorted(fin_ctx.pending):
            cfg._edge(fin_ctx.finexit, target)
        return [fin_ctx.finexit]


def build_cfg(scope: Scope) -> CFG:
    """The statement-level CFG of ``scope`` (nested scopes are not entered)."""
    return _Builder(scope).build()
