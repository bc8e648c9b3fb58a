"""OBS001: observability emissions on hot paths must be ``OBS.on``-guarded.

PR 1 made instrumentation free when disabled by guarding every emission site
with a single attribute test, and PR 3's fused fast paths rely on that
discipline: an unguarded ``OBS.emit`` or counter bump builds its payload
(string formatting, dict allocation) on every probe even when observability
is off, quietly costing the >2x speedups back.

"Guarded" is a *dominance* question, answered on the function's CFG
(:mod:`repro.analysis.cfg`): an emission is guarded when its node is
dominated by the guarding arm of an ``OBS.on`` test — the true arm of
``if OBS.on:`` / ``if observing and ...:``, or the false arm of
``if not OBS.on: ...``.  Dominance subsumes the idiom catalogue the
original line scanner special-cased: the early-exit form ``if not OBS.on:
return`` guards the rest of the function *because* every later node is
dominated by the test's fall-through arm, not because the rule pattern-
matches a ``return``; the same holds for ``continue``/``break``/``raise``
early exits and for guard tests sitting inside loops or ``try`` bodies.

Recognized guard spellings (the test expression, not the shape around it):

- ``OBS.on`` itself, possibly inside a larger boolean test,
- a local alias — ``observing = OBS.on`` / ``obs_on = OBS.on`` — tested
  later (``if observing: ...``),
- a private helper whose every call site *within the module* is guarded
  is treated as guarded.

Cheap control calls (``OBS.bus.quiet()/mark()/since()``, snapshots) are
exempt; ``span()`` is exempt because the profiler checks its own flag.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import dominators
from repro.analysis.engine import LintContext, Rule, attr_chain, register, scopes

_METRIC_FACTORIES = {"counter", "gauge", "histogram"}


def _emission_label(call: ast.Call, metric_aliases: set[str]) -> str | None:
    """A display label when ``call`` is an observability emission, else None."""
    chain = attr_chain(call.func)
    if not chain:
        return None
    if chain[0] == "OBS":
        rest = chain[1:]
        if rest == ["emit"]:
            return "OBS.emit"
        if rest == ["bus", "emit"]:
            return "OBS.bus.emit"
        if len(rest) == 2 and rest[0] == "metrics" and rest[1] in _METRIC_FACTORIES:
            return f"OBS.metrics.{rest[1]}"
        return None
    if chain[0] in metric_aliases and len(chain) == 2 and chain[1] in _METRIC_FACTORIES:
        return f"{chain[0]}.{chain[1]}"
    return None


def _mentions_guard(expr: ast.expr, guard_names: set[str]) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "on"
            and isinstance(node.value, ast.Name)
            and node.value.id == "OBS"
        ):
            return True
        if isinstance(node, ast.Name) and node.id in guard_names:
            return True
    return False


def _is_negated(test: ast.expr) -> bool:
    return isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)


@dataclass
class _ScopeScan:
    """Emission and call sites found in one function (or the module body)."""

    emissions: list[tuple[ast.Call, str, bool]] = field(default_factory=list)
    #: bare callee name -> call-site guarded flags (module-local resolution)
    calls: list[tuple[str, bool]] = field(default_factory=list)


def _guard_arms(cfg: CFG, guard_names: set[str]) -> set[int]:
    """Arm nodes whose traversal implies ``OBS.on`` held.

    The true arm of a test mentioning the guard, or the false arm of a
    top-level-negated one (``if not OBS.on: ...`` — its fall-through side
    is the guarded side).  ``or``-combined guards are over-trusted, like
    the line scanner before; the repo idiom is ``and``-composition.
    """
    arms: set[int] = set()
    for node in cfg.nodes:
        if node.kind != "test" or not node.exprs:
            continue
        if not isinstance(node.ast_node, (ast.If, ast.While)):
            continue
        test = node.exprs[0]
        if not _mentions_guard(test, guard_names):
            continue
        want = "false" if _is_negated(test) else "true"
        for arm in cfg.arms_of(node.index):
            if arm.branch == want:
                arms.add(arm.index)
    return arms


def _bare_callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _scan_scope(cfg: CFG, guard_names: set[str], metric_aliases: set[str]) -> _ScopeScan:
    """Classify every call in one scope's CFG by guard dominance."""
    scan = _ScopeScan()
    arms = _guard_arms(cfg, guard_names)
    doms = dominators(cfg) if arms else None
    for node in cfg.nodes:
        guarded = doms is not None and bool(arms & doms[node.index])
        for call in cfg.calls_at(node.index):
            label = _emission_label(call, metric_aliases)
            if label is not None:
                scan.emissions.append((call, label, guarded))
                continue
            callee = _bare_callee(call.func)
            if callee is not None:
                scan.calls.append((callee, guarded))
    return scan


def _collect_aliases(body: list[ast.stmt]) -> tuple[set[str], set[str]]:
    """``(guard aliases, OBS.metrics aliases)`` assigned anywhere in a scope."""
    guard_names: set[str] = set()
    metric_aliases: set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            target = node.targets[0].id
            if _mentions_guard(node.value, set()):
                guard_names.add(target)
            chain = attr_chain(node.value)
            if chain == ["OBS", "metrics"]:
                metric_aliases.add(target)
    return guard_names, metric_aliases


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


@register
class ObsGuardRule(Rule):
    """Hot-path instrumentation must test ``OBS.on`` before building payloads."""

    rule_id = "OBS001"
    name = "unguarded-obs-emission"
    summary = "observability emission on a hot path without an OBS.on guard"
    rationale = (
        "The obs-off discipline (PR 1/PR 3): disabled instrumentation must "
        "cost one attribute test.  An unguarded emit/counter call allocates "
        "its payload on every probe, regressing the fused fast paths.  "
        "Guardedness is dominance by the guarding arm of an OBS.on test on "
        "the function's CFG."
    )
    include = ("repro/core", "repro/linksched", "repro/network", "repro/procsched")

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        scans: dict[ast.AST, _ScopeScan] = {}
        names: dict[ast.AST, str] = {}
        for scope in scopes(tree):
            body = scope.body
            guard_names, metric_aliases = _collect_aliases(body)
            scans[scope] = _scan_scope(ctx.cfg(scope), guard_names, metric_aliases)
            names[scope] = (
                "<module>" if isinstance(scope, ast.Module) else scope.name
            )

        # Module-local escape: a function whose every call site in this file
        # is guarded inherits the guard (a private emitting helper).
        call_sites: dict[str, list[bool]] = {}
        for scan in scans.values():
            for callee, guarded in scan.calls:
                call_sites.setdefault(callee, []).append(guarded)
        for scope, scan in scans.items():
            sites = call_sites.get(names[scope], [])
            if sites and all(sites):
                continue
            for node, label, guarded in scan.emissions:
                if guarded:
                    continue
                ctx.report(
                    self,
                    node,
                    f"unguarded observability emission {label}(...); test "
                    "`if OBS.on:` (or an `observing = OBS.on` alias) first",
                )
