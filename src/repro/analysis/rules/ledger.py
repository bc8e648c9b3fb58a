"""OBS002: run-ledger files are written only through ``runlog.append``.

The run ledger (:mod:`repro.obs.runlog`) promises atomic single-write
appends, sharding and one record schema.  Those hold only on its one write
path, so any other code that opens a ledger file writably, or writes one
with ``write_text``/``write_bytes``, is flagged.  Reading a ledger file
directly is fine.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintContext, Rule, attr_chain, register

#: Writable open modes (``open(path, MODE)``) that OBS002 treats as a write.
_WRITE_MODES = {"w", "a", "x"}

#: Callables that put bytes on disk.
_WRITE_CALLEES = {"open", "write_text", "write_bytes"}

#: Substrings that mark a string literal as naming a ledger artifact.
_LEDGER_LITERALS = (".repro-runs", "ledger-")

#: Identifier fragments that mark a variable as holding a ledger path.
_LEDGER_NAME_FRAGMENTS = ("ledger", "runs_dir", "runs_path")


def _mentions_ledger(node: ast.AST) -> bool:
    """Whether an expression subtree names a run-ledger file or directory."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if any(lit in sub.value for lit in _LEDGER_LITERALS):
                return True
        if isinstance(sub, (ast.Name, ast.Attribute)):
            ident = sub.id if isinstance(sub, ast.Name) else sub.attr
            lowered = ident.lower()
            if any(frag in lowered for frag in _LEDGER_NAME_FRAGMENTS):
                return True
    return False


def _is_write_call(call: ast.Call) -> bool:
    """Whether ``call`` opens a file writably or writes content directly."""
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name not in _WRITE_CALLEES:
        return False
    if name == "open":
        # ``os.open`` flags or builtin ``open`` mode: writable unless the
        # call is positively read-only (bare ``open(path)`` or mode "r...").
        chain = attr_chain(func)
        if chain == ["os", "open"]:
            return True  # os.open with any flags — O_APPEND etc.
        mode = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return False  # open(path) defaults to "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(m in mode.value for m in _WRITE_MODES)
        return True  # dynamic mode: assume writable
    return True  # write_text / write_bytes


@register
class LedgerWriteRule(Rule):
    """Run-ledger writes must go through ``repro.obs.runlog.append``."""

    rule_id = "OBS002"
    name = "direct-ledger-write"
    summary = "run-ledger file written without going through runlog.append"
    rationale = (
        "The ledger's guarantees — atomic single-write appends, sharding, "
        "one schema — hold only on the sanctioned write path.  A hand-rolled "
        "open()/write() can interleave partial lines under concurrency and "
        "silently fork the record format."
    )
    include = ("repro",)
    exclude = ("repro/obs/runlog.py",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_write_call(node):
                continue
            arg_nodes: list[ast.AST] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            # For method receivers (path.write_text(...)), the receiver names
            # the file being written.
            if isinstance(node.func, ast.Attribute):
                arg_nodes.append(node.func.value)
            if any(_mentions_ledger(a) for a in arg_nodes):
                ctx.report(
                    self,
                    node,
                    "direct write to a run-ledger file; append records via "
                    "repro.obs.runlog.append (atomic, sharded, schema-checked)",
                )
