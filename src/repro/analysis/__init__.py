"""Repo-specific static analysis: the ``repro lint`` engine.

A small AST-based linter that turns this reproduction's correctness
conventions — determinism (PR 2), worker purity, the run ledger's one
write path, the undo log's private containers, and float tolerance
hygiene around the paper's causality condition — into machine-checked
rules.  Stdlib-only and import-light so ``repro lint`` starts fast in
editors and CI.

Public API::

    from repro.analysis import lint_paths, lint_source, all_rules

    result = lint_paths(["src"])        # LintResult(findings, suppressed, files)
    for finding in result.findings:
        print(finding.format())         # file:line:col RULE_ID message

CLI: ``python -m repro lint [paths ...]`` — see ``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.analysis.engine import (
    RULES,
    LintContext,
    LintResult,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register,
    select_rules,
)
from repro.analysis.findings import Finding

__all__ = [
    "Finding",
    "LintContext",
    "LintResult",
    "Rule",
    "RULES",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register",
    "select_rules",
]
