"""The module-local call graph.

The worker-purity rules (PUR) are only as good as the graph they query,
so it is tested directly: name resolution through the lexical function
chain, class scopes skipped, and the ``self.m()`` over-approximation.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph

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
