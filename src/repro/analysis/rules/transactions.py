"""Transaction-safety rule for the link-schedule undo log.

``LinkScheduleState`` keeps tentative booking correct by recording an
inverse for every write *inside its public write methods*, which
``LinkScheduleState.tentative()`` replays when its ``with`` block exits.

**TXN001** (representation) — touching the private containers
(``_queues``/``_routes``/``_next_link``/``_undo``) from outside ``state.py``
bypasses the undo log and corrupts any open tentative block.  Reads are
flagged too: they couple callers to the representation, so each deliberate
hot-path read carries an inline suppression with its reason, as the Lemma-2
slack scan in ``optimal_insertion.py`` does.

That every tentative write is undone needs no rule: the ``with`` block
guarantees it on every path, exceptions included.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintContext, Rule, dotted, register

#: Private containers of LinkScheduleState; writes outside state.py bypass
#: the undo log, reads freeze the representation.
PRIVATE_STATE_ATTRS = frozenset({"_queues", "_routes", "_next_link", "_undo"})


@register
class StateInternalsRule(Rule):
    """Only ``linksched/state.py`` may touch the undo-logged containers."""

    rule_id = "TXN001"
    name = "link-state-internals"
    summary = "access to LinkScheduleState private containers outside state.py"
    rationale = (
        "Public write methods append undo-log inverses; a direct write to "
        "_queues/_routes/_next_link corrupts the undo of any open "
        "tentative block.  Deliberate hot-path reads (the hoisted Lemma-2 "
        "scan) carry an inline `# repro-lint: disable=TXN001 (reason)`."
    )
    include = ("repro",)
    exclude = ("repro/linksched/state.py",)

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_STATE_ATTRS
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            ):
                ctx.report(
                    self,
                    node,
                    f"access to LinkScheduleState internals "
                    f"`{dotted(node.value)}.{node.attr}` bypasses the "
                    "undo-log API; use the public methods",
                )
            elif isinstance(node, ast.Name) and node.id == "_LinkQueue":
                ctx.report(
                    self,
                    node,
                    "_LinkQueue is private to linksched/state.py; construct "
                    "queues through LinkScheduleState",
                )
            elif isinstance(node, ast.ImportFrom) and any(
                a.name == "_LinkQueue" for a in node.names
            ):
                ctx.report(
                    self,
                    node,
                    "_LinkQueue is private to linksched/state.py; import the "
                    "public LinkScheduleState API instead",
                )

