"""Float-discipline rule: no exact ``==``/``!=`` on float-typed expressions.

Schedule instants accumulate an EPS fuzz per OIHSA deferral (see
``repro/linksched/optimal_insertion.py``), so exact float equality in
decision or validation logic is a latent correctness bug: two runs that are
semantically identical can diverge on the last ulp.  Tolerance comparison
lives in one audited place, :mod:`repro.linksched.causality`
(``CAUSALITY_EPS`` band checks), which is exempt from this rule.  The few
intentional exact comparisons elsewhere (e.g. the ``room == 0.0`` fast
path, exact because ``accum`` and ``gap_after`` are clamped) carry inline
suppressions explaining why.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintContext, Rule, register, scopes, walk_scope

#: Attribute names that are float-typed throughout the model layer (schedule
#: instants, durations, costs, rates).  Kept curated, not inferred: adding a
#: name here widens the rule everywhere.
FLOAT_ATTRS = frozenset(
    {
        "start",
        "finish",
        "duration",
        "cost",
        "weight",
        "speed",
        "makespan",
        "arrival",
        "slack",
        "ready_time",
        "hop_delay",
    }
)

_FLOATISH_FUNCS = {"abs", "min", "max", "sum"}


def _float_annotated_names(scope: ast.AST) -> set[str]:
    """Names annotated ``: float`` among ``scope``'s params and assignments."""
    names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = arg.annotation
            if isinstance(ann, ast.Name) and ann.id == "float":
                names.add(arg.arg)
    for node in walk_scope(scope):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.annotation, ast.Name)
            and node.annotation.id == "float"
        ):
            names.add(node.target.id)
    return names


def _is_floatish(node: ast.expr, float_names: set[str]) -> bool:
    """Whether ``node`` is statically recognizable as float-valued."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Name):
        return node.id in float_names
    if isinstance(node, ast.Attribute):
        if node.attr in FLOAT_ATTRS:
            return True
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in {"inf", "nan", "pi", "e", "tau"}
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "float":
                return True
            if func.id in _FLOATISH_FUNCS:
                return any(_is_floatish(a, float_names) for a in node.args)
        return False
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left, float_names) or _is_floatish(
            node.right, float_names
        )
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand, float_names)
    return False


@register
class FloatEqualityRule(Rule):
    """Exact equality between floats is fragile under EPS-fuzzed arithmetic."""

    rule_id = "FLT001"
    name = "float-equality"
    summary = "==/!= between float-typed expressions outside the tolerance helpers"
    rationale = (
        "Deferral arithmetic carries an EPS fuzz (Lemma 2 slack cascades), so "
        "exact float equality can flip on the last ulp; compare with the "
        "CAUSALITY_EPS band (linksched.causality) instead."
    )
    include = ("repro",)
    exclude = ("repro/linksched/causality.py",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for scope in scopes(tree):
            float_names = _float_annotated_names(scope)
            for node in walk_scope(scope):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                    continue
                operands = [node.left, *node.comparators]
                if any(_is_floatish(o, float_names) for o in operands):
                    ctx.report(
                        self,
                        node,
                        "exact float equality; use an epsilon band "
                        "(CAUSALITY_EPS) or math.isclose, or suppress with a "
                        "reason if exactness is guaranteed",
                    )
