"""Finding records produced by the lint engine.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: hashable, ordered by location, and serializable to the
JSON report format and the ``file:line:col RULE message`` editor format
(the same shape flake8/ruff emit, so editor error-matchers work unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``line`` and ``col`` are 1-based (editor convention).  ``snippet`` is the
    stripped text of the offending source line, carried in the JSON report.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """Stable ``file:line:col RULE_ID message`` editor line."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }
