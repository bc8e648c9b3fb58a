"""``repro lint`` — the static-analysis CLI surface.

Editor-friendly by construction: findings go to stdout as stable
``file:line:col RULE_ID message`` lines (flake8-shaped, so error-matchers
work), summaries and diagnostics go to stderr, and the exit code is 0 only
when the tree is clean.  ``--format json`` emits the full machine report.

Exit codes: 0 clean · 1 findings · 2 usage error (unknown rule id, empty
selection, a missing path, an unwritable ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from repro.analysis.engine import LintResult, lint_paths, select_rules


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` arguments to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="IDS",
        help="comma-separated rule ids to run exclusively (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="IDS",
        help="comma-separated rule ids to skip (repeatable)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (text: file:line:col RULE message)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the JSON report to FILE (independent of --format)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe the registered rules and exit",
    )


def _split_ids(values: list[str] | None) -> list[str] | None:
    if values is None:
        return None
    out: list[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part.strip())
    return out


def _print_rules() -> None:
    from repro.analysis.engine import all_rules
    from repro.analysis.rules import FAMILIES

    for rule in all_rules():
        family = FAMILIES.get(rule.rule_id[:3], "other")
        print(f"{rule.rule_id}  {rule.name}  [{family}]")
        print(f"    scope: {', '.join(rule.include)}"
              + (f"  (except {', '.join(rule.exclude)})" if rule.exclude else ""))
        print(f"    {rule.summary}")


#: JSON report layout version.  2 added ``schema_version`` itself and the
#: active ``rules`` list; 3 dropped the baseline sections.
_SCHEMA_VERSION = 3


def _json_report(result: LintResult, rule_ids: list[str]) -> dict[str, object]:
    return {
        "schema_version": _SCHEMA_VERSION,
        "rules": rule_ids,
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
    }


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        _print_rules()
        return 0
    try:
        rules = select_rules(_split_ids(args.select), _split_ids(args.ignore))
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if not rules:
        print("repro lint: no rules selected", file=sys.stderr)
        return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(f"repro lint: no such file or directory: {path}", file=sys.stderr)
            return 2
    try:
        output = open(args.output, "w", encoding="utf-8") if args.output else None
    except OSError as exc:
        print(
            f"repro lint: cannot write {args.output}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    try:
        with output or nullcontext():
            result = lint_paths(args.paths, rules)
            report = _json_report(result, [r.rule_id for r in rules])
            if output is not None:
                json.dump(report, output, indent=2, sort_keys=True)
                output.write("\n")
    except OSError as exc:  # an unreadable source file, or a failed report write
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.format())
        print(
            f"{len(result.findings)} finding(s), {len(result.suppressed)} "
            f"suppressed in {result.files} file(s)",
            file=sys.stderr,
        )
    return 1 if result.findings else 0
