"""KER00x: compilable-subset enforcement for the batch-evaluation hot loops.

ROADMAP item 4 keeps open the option of lowering the batch scorer's inner
loops (``PyKernel._resimulate`` and the column-journal paths) through a
tracing compiler — Numba/Cython-style, operating on plain ints, floats and
homogeneous lists.  Whether or not that lands, the hot
loops must stay inside the subset such a compiler can take: every dynamic
feature that creeps in now is a rewrite later, and most of them are also
plain interpreter overhead on exactly the lines profiled as hot.

The *hot set* is computed, not annotated: conventional roots
(``_resimulate``, ``restore``, ``snapshot``, ``makespan``) plus everything
they transitively call module-locally, via
:mod:`repro.analysis.callgraph`.  Scope is pinned to the kernel files
(``repro/core/_kernel.py`` — the module the optional AOT build compiles —
and ``repro/core/batch.py``, which calls it) — these rules are
deliberately too strict for ordinary code.

- **KER001** — static signatures and call shapes only: no ``*args`` /
  ``**kwargs`` parameters, no ``*``/``**`` splats at call sites.
- **KER002** — no dynamic attribute or namespace access (``getattr`` /
  ``setattr`` / ``vars`` / ``__dict__`` / ``eval`` …): field accesses must
  be resolvable at trace time.
- **KER003** — no closures: nested ``def``/``lambda`` in hot code allocates
  cell objects per call and defeats function-boundary tracing.
- **KER004** — no generators or coroutine machinery: ``yield`` /
  ``yield from`` / ``await`` and generator expressions suspend frames,
  which tracing compilers cannot lower; the hot loops iterate eagerly.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import CallGraph, FunctionNode
from repro.analysis.engine import LintContext, Rule, register, walk_scope
from repro.analysis.rules.arrays import ARRAY_KERNEL_FILES

#: Conventional hot-loop entry points within the kernel files.
HOT_ROOTS = frozenset({"_resimulate", "restore", "snapshot", "makespan"})

#: Builtins that reach into namespaces dynamically.
_DYNAMIC_BUILTINS = frozenset(
    {"getattr", "setattr", "delattr", "vars", "globals", "locals", "eval", "exec", "compile"}
)


def hot_functions(ctx: LintContext) -> list[tuple[str, FunctionNode]]:
    """The kernel file's hot set: conventional roots + module-local callees."""
    cg: CallGraph = ctx.callgraph()
    roots = [q for name in sorted(HOT_ROOTS) for q in cg.named(name)]
    return [(q, cg.functions[q]) for q in sorted(cg.reachable_from(roots))]


class _KernelRule(Rule):
    """Base: iterate hot functions of the kernel files."""

    include = ARRAY_KERNEL_FILES

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for qualname, func in hot_functions(ctx):
            self.check_hot(qualname, func, ctx)

    def check_hot(self, qualname: str, func: FunctionNode, ctx: LintContext) -> None:
        raise NotImplementedError


@register
class StaticSignatureRule(_KernelRule):
    """Hot code keeps static signatures and call shapes."""

    rule_id = "KER001"
    name = "kernel-static-signature"
    summary = "*args/**kwargs or call-site splat in a kernel hot function"
    rationale = (
        "Variadic packing allocates a tuple/dict per call and makes the "
        "callee's frame shape dynamic — untraceable for a compiler and "
        "measurable interpreter overhead on the booking path.  Hot-loop "
        "helpers take a fixed positional signature."
    )

    def check_hot(self, qualname: str, func: FunctionNode, ctx: LintContext) -> None:
        if func.args.vararg is not None or func.args.kwarg is not None:
            star = "*" + func.args.vararg.arg if func.args.vararg else "**" + func.args.kwarg.arg  # type: ignore[union-attr]
            ctx.report(
                self,
                func,
                f"hot function `{qualname}` takes `{star}`; kernel "
                "signatures must be fixed and positional",
            )
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                ctx.report(
                    self,
                    node,
                    f"`*` argument splat in hot function `{qualname}`; "
                    "pass arguments positionally",
                )
            if any(kw.arg is None for kw in node.keywords):
                ctx.report(
                    self,
                    node,
                    f"`**` keyword splat in hot function `{qualname}`; "
                    "pass arguments explicitly",
                )


@register
class DynamicAttributeRule(_KernelRule):
    """Hot code resolves every attribute statically."""

    rule_id = "KER002"
    name = "kernel-dynamic-attribute"
    summary = "dynamic attribute/namespace access in a kernel hot function"
    rationale = (
        "getattr/setattr/vars/__dict__ (and eval/exec) defer name "
        "resolution to run time, so a tracing compiler cannot type the "
        "access — and the dict probes they imply are exactly the overhead "
        "the column-store rewrite removed."
    )

    def check_hot(self, qualname: str, func: FunctionNode, ctx: LintContext) -> None:
        for node in walk_scope(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _DYNAMIC_BUILTINS
            ):
                ctx.report(
                    self,
                    node,
                    f"`{node.func.id}(...)` in hot function `{qualname}`; "
                    "kernel attribute access must be static",
                )
            elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
                ctx.report(
                    self,
                    node,
                    f"`__dict__` access in hot function `{qualname}`; "
                    "kernel state lives in typed columns, not object dicts",
                )


@register
class NoClosureRule(_KernelRule):
    """Hot code defines no nested functions or lambdas."""

    rule_id = "KER003"
    name = "kernel-no-closures"
    summary = "nested def/lambda inside a kernel hot function"
    rationale = (
        "A def/lambda in the hot path allocates a function (and cells for "
        "captured variables) per enclosing call and hides control flow "
        "behind an indirect call a tracer cannot follow.  Hoist helpers to "
        "module level and pass state explicitly."
    )

    def check_hot(self, qualname: str, func: FunctionNode, ctx: LintContext) -> None:
        for node in walk_scope(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                label = getattr(node, "name", "<lambda>")
                ctx.report(
                    self,
                    node,
                    f"nested callable `{label}` defined inside hot function "
                    f"`{qualname}`; hoist it to module level",
                )


@register
class NoGeneratorRule(_KernelRule):
    """Hot code iterates eagerly — no suspended frames."""

    rule_id = "KER004"
    name = "kernel-no-generators"
    summary = "yield/await or generator expression in a kernel hot function"
    rationale = (
        "Generators and coroutines suspend and resume frames; a tracing "
        "compiler sees an opaque state machine, and the interpreter pays a "
        "frame switch per item.  The booking loops write their results "
        "into preallocated columns instead."
    )

    def check_hot(self, qualname: str, func: FunctionNode, ctx: LintContext) -> None:
        for node in walk_scope(func):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                kind = {
                    ast.Yield: "yield",
                    ast.YieldFrom: "yield from",
                    ast.Await: "await",
                }[type(node)]
                ctx.report(
                    self,
                    node,
                    f"`{kind}` in hot function `{qualname}`; kernel loops "
                    "must run to completion in one frame",
                )
            elif isinstance(node, ast.GeneratorExp):
                ctx.report(
                    self,
                    node,
                    f"generator expression in hot function `{qualname}`; "
                    "build the list eagerly or loop explicitly",
                )
