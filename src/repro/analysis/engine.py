"""AST lint engine: rule base class, registry, suppression, file walking.

The engine parses each file once, hands the tree to every rule whose path
scope matches, and collects :class:`~repro.analysis.findings.Finding`
records.  Rules are small stateless visitors (see ``repro/analysis/rules/``)
registered with :func:`register`; everything repo-specific — which modules
count as scheduling code, which files are the run ledger — lives in the
rules, not here.

Suppression syntax (checked against the *reported* line):

- ``# repro-lint: disable=RULE1,RULE2`` — silence those rules on this line,
- ``# repro-lint: disable-file=RULE1`` — silence a rule for the whole file,
- ``all`` is accepted in place of a rule id.

A reason follows the ids in parentheses —
``# repro-lint: disable=TXN001 (read-only hot-path hoist)`` — because a bare
word after an id would be read as part of the id list.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.analysis.callgraph import CallGraph

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)


# -- path scoping --------------------------------------------------------------


def normalize_path(path: str) -> str:
    """Repo-relative POSIX form of ``path``, for display and rule scoping."""
    norm = os.path.normpath(path)
    if os.path.isabs(norm):
        try:
            rel = os.path.relpath(norm)
        except ValueError:  # different drive on Windows
            rel = norm
        if not rel.startswith(".."):
            norm = rel
    return norm.replace(os.sep, "/")


def path_matches(rel_path: str, patterns: Iterable[str]) -> bool:
    """Whether any pattern matches ``rel_path`` on whole path segments.

    ``"repro/core"`` matches ``src/repro/core/ba.py`` (directory scope) and
    ``"repro/utils/rng.py"`` matches exactly that file, wherever the tree is
    rooted.  Matching is segment-aligned, so ``repro/core`` does not match
    ``repro/core_utils.py``.
    """
    haystack = "/" + rel_path.strip("/")
    for pattern in patterns:
        p = pattern.strip("/")
        if not p:
            continue
        if haystack.endswith("/" + p) or ("/" + p + "/") in haystack:
            return True
    return False


# -- shared AST helpers (used by the rule modules) -----------------------------


def attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` unless rooted at a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def dotted(node: ast.expr) -> str:
    """Best-effort dotted-name rendering of a call receiver expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{dotted(node.func)}()"
    if isinstance(node, ast.Subscript):
        return f"{dotted(node.value)}[...]"
    return f"<{type(node).__name__}>"


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def scopes(tree: ast.Module) -> Iterator[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef]:
    """The module plus every (possibly nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _SCOPE_NODES):
            yield node


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_SCOPE_NODES, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


# -- rules ---------------------------------------------------------------------


class Rule:
    """Base class for lint rules.

    Subclasses set the metadata attributes, may narrow ``include`` /
    ``exclude`` (segment-aligned path patterns, see :func:`path_matches`),
    and implement :meth:`check`.  Rules must be stateless: one instance is
    reused across files.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""
    include: tuple[str, ...] = ("repro",)
    exclude: tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        return path_matches(rel_path, self.include) and not path_matches(
            rel_path, self.exclude
        )

    def check(self, tree: ast.Module, ctx: "LintContext") -> None:
        raise NotImplementedError


#: Registry of built-in rules, populated by :func:`register` at import time
#: of :mod:`repro.analysis.rules`.
RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """One instance of every registered rule, ordered by id."""
    import repro.analysis.rules  # noqa: F401  (importing registers the rules)

    return [RULES[rule_id]() for rule_id in sorted(RULES)]


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Filter the registry by ``--select`` / ``--ignore`` id lists.

    Ids are case-insensitive; unknown ids raise ``ValueError`` so typos fail
    loudly instead of silently linting nothing.
    """
    rules = all_rules()
    known = {r.rule_id for r in rules}

    def _norm(ids: Iterable[str]) -> set[str]:
        out = {i.strip().upper() for i in ids if i.strip()}
        unknown = out - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return out

    if select is not None:
        chosen = _norm(select)
        rules = [r for r in rules if r.rule_id in chosen]
    if ignore is not None:
        dropped = _norm(ignore)
        rules = [r for r in rules if r.rule_id not in dropped]
    return rules


# -- per-file context ----------------------------------------------------------


class LintContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(self, rel_path: str, source: str, tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        self._line_disables: dict[int, set[str]] = {}
        self._file_disables: set[str] = set()
        self._parents: dict[int, ast.AST] | None = None
        self._callgraph: "CallGraph | None" = None
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = {t.strip().upper() for t in match.group(2).split(",") if t.strip()}
            if match.group(1) == "disable-file":
                self._file_disables |= ids
            else:
                self._line_disables.setdefault(lineno, set()).update(ids)

    def line_text(self, lineno: int) -> str:
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        ids = self._line_disables.get(lineno, set()) | self._file_disables
        return rule_id.upper() in ids or "ALL" in ids

    def callgraph(self) -> "CallGraph":
        """The (memoized) module-local call graph of the file."""
        from repro.analysis.callgraph import CallGraph

        if self._callgraph is None:
            self._callgraph = CallGraph(self.tree)
        return self._callgraph

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (parent map built lazily, once)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[id(child)] = parent
        return self._parents.get(id(node))

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        finding = Finding(
            path=self.rel_path,
            line=lineno,
            col=col,
            rule=rule.rule_id,
            message=message,
            snippet=self.line_text(lineno).strip(),
        )
        if self.is_suppressed(rule.rule_id, lineno):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


# -- entry points --------------------------------------------------------------


@dataclass(slots=True)
class LintResult:
    """Outcome of one lint run: what fired, what comments silenced, coverage."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0


def lint_source(
    source: str, rel_path: str, rules: list[Rule] | None = None
) -> LintResult:
    """Lint one in-memory source blob under the virtual path ``rel_path``."""
    active = all_rules() if rules is None else rules
    rel = normalize_path(rel_path)
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return _parse_failure(rel, exc.lineno or 1, exc.offset or 1, f"syntax error: {exc.msg}")
    ctx = LintContext(rel, source, tree)
    for rule in active:
        if rule.applies_to(rel):
            rule.check(tree, ctx)
    ctx.findings.sort(key=lambda f: f.sort_key)
    ctx.suppressed.sort(key=lambda f: f.sort_key)
    return LintResult(findings=ctx.findings, suppressed=ctx.suppressed, files=1)


def _parse_failure(rel: str, line: int, col: int, message: str) -> LintResult:
    """The one ``PARSE`` finding of a file that could not be parsed."""
    finding = Finding(path=rel, line=line, col=col, rule="PARSE", message=message)
    return LintResult(findings=[finding], files=1)


def _decode_source(data: bytes) -> str:
    """``data`` decoded as Python decodes a source file.

    That is UTF-8 unless a PEP 263 coding cookie in the first two lines
    names another encoding.  Raises ``SyntaxError``, with the cookie's
    line, for an encoding Python does not know, and ``UnicodeDecodeError``
    for a byte the encoding cannot decode.
    """
    lines = io.BytesIO(data).readline
    read = 0

    def readline() -> bytes:
        # A cookie is ASCII, so a byte UTF-8 cannot decode is replaced
        # here and reported, with its offset, by the decode below.
        nonlocal read
        read += 1
        return lines().decode("utf-8", "replace").encode()

    try:
        encoding, _ = tokenize.detect_encoding(readline)
    except SyntaxError as exc:
        exc.lineno = read
        raise
    return data.decode(encoding)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in a deterministic order."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def lint_paths(
    paths: Iterable[str], rules: list[Rule] | None = None
) -> LintResult:
    """Lint every Python file under ``paths``; results are order-stable."""
    active = all_rules() if rules is None else rules
    result = LintResult()
    for filepath in iter_python_files(paths):
        with open(filepath, "rb") as fh:
            data = fh.read()
        try:
            source = _decode_source(data)
        except SyntaxError as exc:  # a coding cookie naming no usable encoding
            file_result = _parse_failure(normalize_path(filepath), exc.lineno or 1, 1, exc.msg)
        except UnicodeDecodeError as exc:
            line = exc.object[: exc.start].count(b"\n") + 1
            file_result = _parse_failure(
                normalize_path(filepath), line, 1, f"cannot decode as {exc.encoding}: {exc.reason}"
            )
        else:
            file_result = lint_source(source, filepath, active)
        result.findings.extend(file_result.findings)
        result.suppressed.extend(file_result.suppressed)
        result.files += 1
    result.findings.sort(key=lambda f: f.sort_key)
    result.suppressed.sort(key=lambda f: f.sort_key)
    return result
