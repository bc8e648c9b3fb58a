"""CFG construction, dominators, and the module-local call graph.

The flow rules (PUR, dominance OBS001) are only as good as the graphs they
query, so the framework is tested directly: edge shapes for the control
constructs the scheduling code actually uses (try/finally, nested loops
with break, early returns), dominator convergence on loops, and call-graph
name resolution (lexical function chain, class scopes skipped, ``self.m()``
over-approximation).
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import dominators, reachable
from repro.analysis.engine import dotted


def cfg_of(source: str) -> CFG:
    """CFG of the first function defined in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
    )
    return build_cfg(func)


def node_calling(cfg: CFG, name: str):
    """The unique node evaluating a call whose callee ends with ``name``."""
    hits = []
    for node in cfg.nodes:
        for call in cfg.calls_at(node.index):
            if dotted(call.func).endswith(name):
                hits.append(node)
    assert len(hits) == 1, f"{name}: {hits}"
    return hits[0]


class TestCFGConstruction:
    def test_straight_line_chain(self):
        cfg = cfg_of(
            """
            def f(x):
                a = x
                b = a
                return b
            """
        )
        # entry -> a=x -> b=a -> return -> exit, single-successor chain
        # (the return statement itself cannot raise: plain name move).
        index = cfg.entry
        kinds = []
        while index != cfg.exit:
            node = cfg.nodes[index]
            kinds.append(node.kind)
            assert len(node.succ) == 1
            index = node.succ[0]
        assert kinds == ["entry", "stmt", "stmt", "stmt"]

    def test_if_produces_arm_nodes(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        tests = [n for n in cfg.nodes if n.kind == "test"]
        assert len(tests) == 1
        arms = cfg.arms_of(tests[0].index)
        assert sorted(a.branch for a in arms) == ["false", "true"]
        # Each arm leads into its branch's statement.
        for arm in arms:
            assert len(arm.succ) == 1

    def test_dead_code_after_return_has_no_node(self):
        cfg = cfg_of(
            """
            def f(s):
                s.open()
                return 1
                s.close()
            """
        )
        assert node_calling(cfg, "s.open") is not None
        labels = [
            dotted(c.func) for n in cfg.nodes for c in cfg.calls_at(n.index)
        ]
        assert "s.close" not in labels

    def test_loop_back_edge_and_break_arm(self):
        cfg = cfg_of(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                    use(item)
                return 0
            """
        )
        header = next(n for n in cfg.nodes if n.kind == "for")
        # iter/exhaust leave the header; the break arm is a jump *target*.
        arms = {a.branch for a in cfg.arms_of(header.index)}
        assert arms == {"iter", "exhaust"}
        break_arm = next(
            n
            for n in cfg.nodes
            if n.kind == "arm" and n.branch == "break" and n.test == header.index
        )
        break_stmt = next(
            n
            for n in cfg.nodes
            if n.kind == "stmt" and isinstance(n.ast_node, ast.Break)
        )
        assert break_arm.index in break_stmt.succ
        # The loop body's tail edges back to the header.
        tail = node_calling(cfg, "use")
        assert header.index in tail.succ

    def test_nested_loops_break_targets_innermost(self):
        cfg = cfg_of(
            """
            def f(grid):
                for row in grid:
                    for cell in row:
                        break
                return 0
            """
        )
        headers = [n for n in cfg.nodes if n.kind == "for"]
        assert len(headers) == 2
        inner = headers[1]
        inner_break = next(
            n
            for n in cfg.nodes
            if n.kind == "arm" and n.branch == "break" and n.test == inner.index
        )
        break_stmt = next(
            n
            for n in cfg.nodes
            if n.kind == "stmt" and isinstance(n.ast_node, ast.Break)
        )
        assert inner_break.index in break_stmt.succ

    def test_call_statement_gets_exception_edge(self):
        cfg = cfg_of(
            """
            def f(s):
                try:
                    s.work()
                except ValueError:
                    s.cleanup()
            """
        )
        work = node_calling(cfg, "s.work")
        handler = next(n for n in cfg.nodes if n.kind == "except")
        assert handler.index in work.succ

    def test_return_routes_through_finally(self):
        cfg = cfg_of(
            """
            def f(s):
                s.open()
                try:
                    return s.score()
                finally:
                    s.close()
            """
        )
        ret = next(
            n
            for n in cfg.nodes
            if n.kind == "stmt" and isinstance(n.ast_node, ast.Return)
        )
        fin_entry = next(n for n in cfg.nodes if n.kind == "finally")
        finexit = next(n for n in cfg.nodes if n.kind == "finexit")
        # The return does not jump straight to exit: the finally body runs.
        assert cfg.exit not in ret.succ
        assert fin_entry.index in ret.succ
        assert cfg.exit in cfg.nodes[finexit.index].succ

    def test_with_enter_may_raise(self):
        cfg = cfg_of(
            """
            def f(path):
                with opener(path) as fh:
                    fh.read()
            """
        )
        item = next(n for n in cfg.nodes if n.kind == "with")
        assert cfg.exit in item.succ  # __enter__ can raise


class TestDataflow:
    def test_reachable_excludes_dead_code(self):
        cfg = cfg_of(
            """
            def f(x):
                return x
                y = 1
            """
        )
        live = reachable(cfg)
        assert cfg.exit in live
        assert all(cfg.nodes[i].kind != "stmt" or i in live for i in live)

    def test_dominators_diamond(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    left()
                else:
                    right()
                join()
            """
        )
        doms = dominators(cfg)
        test = next(n for n in cfg.nodes if n.kind == "test")
        join = node_calling(cfg, "join")
        left = node_calling(cfg, "left")
        # The test dominates the join; neither branch statement does.
        assert test.index in doms[join.index]
        assert left.index not in doms[join.index]
        # Dominance is reflexive and rooted at entry.
        assert join.index in doms[join.index]
        assert cfg.entry in doms[join.index]

    def test_dominators_converge_on_loops(self):
        cfg = cfg_of(
            """
            def f(items):
                total = 0
                for item in items:
                    total = step(total, item)
                return total
            """
        )
        doms = dominators(cfg)
        header = next(n for n in cfg.nodes if n.kind == "for")
        body = node_calling(cfg, "step")
        ret = next(
            n
            for n in cfg.nodes
            if n.kind == "stmt" and isinstance(n.ast_node, ast.Return)
        )
        # The loop header dominates both the body and everything after.
        assert header.index in doms[body.index]
        assert header.index in doms[ret.index]
        # The body does not dominate the exit path (zero-iteration case).
        assert body.index not in doms[ret.index]


CG_SOURCE = """
def helper(x):
    return x

class Evaluator:
    def helper(self, x):
        return x

    def run(self):
        helper(1)
        self.score()

    def score(self):
        return 0

def outer():
    def inner():
        return helper(2)
    return inner()

def chain():
    outer()
"""


class TestCallGraph:
    def setup_method(self):
        self.cg = CallGraph(ast.parse(CG_SOURCE))

    def test_qualnames_collected(self):
        assert {
            "helper",
            "Evaluator.helper",
            "Evaluator.run",
            "Evaluator.score",
            "outer",
            "outer.inner",
            "chain",
        } <= set(self.cg.functions)

    def test_bare_call_skips_class_scope(self):
        # Python resolves a bare ``helper(1)`` inside a method to the
        # module function, never to the sibling method.
        assert "helper" in self.cg.calls["Evaluator.run"]
        assert "Evaluator.helper" not in self.cg.calls["Evaluator.run"]

    def test_self_call_overapproximates_methods(self):
        assert "Evaluator.score" in self.cg.calls["Evaluator.run"]

    def test_nested_function_resolution(self):
        assert "outer.inner" in self.cg.calls["outer"]
        assert "helper" in self.cg.calls["outer.inner"]

    def test_reachability_is_transitive(self):
        reach = self.cg.reachable_from(["chain"])
        assert {"chain", "outer", "outer.inner", "helper"} <= reach
        assert "Evaluator.run" not in reach

    def test_resolve_name(self):
        assert self.cg.resolve_name(None, "helper") == "helper"
        assert self.cg.resolve_name("outer", "inner") == "outer.inner"
        assert self.cg.resolve_name("outer", "nothing") is None
