"""Module-local call graph so flow rules can reason across helper boundaries.

The worker-purity rules care about a *transitive* property: a worker entry
point is only pure if every helper it calls is.  This module builds the
conservative call graph of one parsed file:

- **Nodes** are the module's function definitions, keyed by dotted
  qualname (``run_unit``, ``PyKernel._resimulate``,
  ``outer.inner`` for nested defs).
- **Edges** resolve three call shapes, all module-local: a bare name call
  resolved through the lexical *function* chain (sibling nested defs, then
  enclosing functions, then module level — class scopes are skipped, as
  Python itself skips them), and a ``self.m(...)``/``cls.m(...)`` call to
  *any* method named ``m`` defined in the file (no type inference — over-
  approximating the receiver keeps reachability sound).

Anything else (imported callables, attribute calls on other objects) is
outside the module and outside the graph; rules that need cross-module
facts encode them as rule knowledge (e.g. PUR003's pickle whitelist)
rather than pretending the graph sees them.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

_SELF_RECEIVERS = ("self", "cls")


class CallGraph:
    """Conservative caller->callee edges between one module's functions."""

    def __init__(self, tree: ast.Module) -> None:
        #: qualname -> def node
        self.functions: dict[str, FunctionNode] = {}
        #: bare method/function name -> qualnames sharing it
        self._by_name: dict[str, list[str]] = {}
        #: qualname -> nearest *enclosing function* qualname (None = module);
        #: class scopes are skipped, matching Python's name resolution.
        self._parent_fn: dict[str, str | None] = {}
        #: qualname -> resolved module-local callee qualnames
        self.calls: dict[str, set[str]] = {}
        self._collect(tree.body, prefix="", parent_fn=None)
        for qualname, func in self.functions.items():
            self.calls[qualname] = self._resolve_calls(qualname, func)

    # -- construction ----------------------------------------------------------

    def _collect(
        self, body: list[ast.stmt], prefix: str, parent_fn: str | None
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                self.functions[qualname] = stmt
                self._by_name.setdefault(stmt.name, []).append(qualname)
                self._parent_fn[qualname] = parent_fn
                self._collect(stmt.body, qualname + ".", parent_fn=qualname)
            elif isinstance(stmt, ast.ClassDef):
                self._collect(stmt.body, prefix + stmt.name + ".", parent_fn)

    def _resolve_calls(self, qualname: str, func: FunctionNode) -> set[str]:
        callees: set[str] = set()
        for call in _own_calls(func):
            target = call.func
            if isinstance(target, ast.Name):
                resolved = self._resolve_bare(qualname, target.id)
                if resolved is not None:
                    callees.add(resolved)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in _SELF_RECEIVERS
            ):
                # self.m() — any method of that name in the file may run.
                callees.update(self._by_name.get(target.attr, ()))
        return callees

    def _resolve_bare(self, caller: str, name: str) -> str | None:
        """Resolve a bare-name call through the lexical function chain."""
        level: str | None = caller
        while level is not None:
            candidate = f"{level}.{name}"
            if candidate in self.functions:
                return candidate
            level = self._parent_fn[level]
        return name if name in self.functions else None

    # -- queries ---------------------------------------------------------------

    def resolve_name(self, caller: str | None, name: str) -> str | None:
        """What a bare-name call to ``name`` from ``caller`` would run.

        ``caller`` is the qualname of the enclosing function (``None`` for
        module level); resolution walks the lexical function chain exactly
        like :meth:`_resolve_bare`.  ``None`` means the name is not a
        function defined in this module (imported, builtin, or a variable).
        """
        if caller is None or caller not in self.functions:
            return name if name in self.functions else None
        return self._resolve_bare(caller, name)

    def qualname_of(self, func: FunctionNode) -> str | None:
        """The qualname of a def node collected from this module."""
        for qualname, node in self.functions.items():
            if node is func:
                return qualname
        return None

    def named(self, name: str) -> list[str]:
        """Qualnames of every function with bare name ``name``, sorted."""
        return sorted(self._by_name.get(name, ()))

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Qualnames reachable from ``roots`` through module-local calls."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            stack.extend(self.calls.get(qualname, ()))
        return seen


def _own_calls(func: FunctionNode) -> Iterator[ast.Call]:
    """Calls in ``func``'s own body, not descending into nested functions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))
