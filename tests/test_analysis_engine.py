"""Engine-level behavior: suppressions, scoping, selection, parse errors."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import all_rules, lint_paths, lint_source, select_rules
from repro.analysis.engine import normalize_path, path_matches

CORE = "src/repro/core/sample.py"

FIRING = """
def same(a: float, b: float) -> bool:
    return a == b
"""


def lint(source: str, path: str = CORE, rules=None):
    return lint_source(textwrap.dedent(source), path, rules)


class TestSuppression:
    def test_inline_disable_moves_finding_to_suppressed(self):
        result = lint(
            """
            def same(a: float, b: float) -> bool:
                return a == b  # repro-lint: disable=FLT001
            """
        )
        assert not result.findings
        assert [f.rule for f in result.suppressed] == ["FLT001"]

    def test_inline_disable_with_reason_text(self):
        result = lint(
            """
            def same(a: float, b: float) -> bool:
                return a == b  # repro-lint: disable=FLT001 (exactness proven)
            """
        )
        assert not result.findings
        assert len(result.suppressed) == 1

    def test_disable_other_rule_does_not_suppress(self):
        result = lint(
            """
            def same(a: float, b: float) -> bool:
                return a == b  # repro-lint: disable=DET001
            """
        )
        assert [f.rule for f in result.findings] == ["FLT001"]

    def test_disable_all_keyword(self):
        result = lint(
            """
            def same(a: float, b: float) -> bool:
                return a == b  # repro-lint: disable=all
            """
        )
        assert not result.findings

    def test_disable_file_silences_whole_module(self):
        result = lint(
            """
            # repro-lint: disable-file=FLT001
            def same(a: float, b: float) -> bool:
                return a == b

            def also(x: float) -> bool:
                return x == 0.5
            """
        )
        assert not result.findings
        assert len(result.suppressed) == 2

    def test_suppression_on_wrong_line_does_not_apply(self):
        result = lint(
            """
            def same(a: float, b: float) -> bool:
                # repro-lint: disable=FLT001
                return a == b
            """
        )
        assert [f.rule for f in result.findings] == ["FLT001"]


class TestPathScoping:
    def test_normalize_path_posix(self):
        assert normalize_path("src/repro/core/ba.py") == "src/repro/core/ba.py"

    def test_segment_aligned_matching(self):
        assert path_matches("src/repro/core/ba.py", ("repro/core",))
        assert not path_matches("src/repro/core_utils.py", ("repro/core",))
        assert path_matches("src/repro/utils/rng.py", ("repro/utils/rng.py",))

    def test_rule_does_not_apply_outside_include(self):
        result = lint(FIRING, path="scripts/helper.py")
        assert not result.findings

    def test_exclude_wins_over_include(self):
        result = lint(FIRING, path="src/repro/utils/intervals.py")
        assert not result.findings


class TestSelection:
    def test_select_isolates_rule(self):
        rules = select_rules(["FLT001"])
        assert [r.rule_id for r in rules] == ["FLT001"]

    def test_ignore_removes_rule(self):
        rules = select_rules(None, ["FLT001"])
        assert "FLT001" not in {r.rule_id for r in rules}

    def test_ids_case_insensitive(self):
        assert [r.rule_id for r in select_rules(["flt001"])] == ["FLT001"]

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            select_rules(["NOPE99"])

    def test_registry_has_all_families(self):
        ids = {r.rule_id for r in all_rules()}
        assert ids == {"DET001", "DET002", "DET003", "FLT001", "OBS001",
                       "OBS002", "PUR001", "PUR002", "PUR003", "TXN001",
                       "TXN101", "TXN103"}

    def test_syntactic_txn_rules_are_retired(self):
        ids = {r.rule_id for r in all_rules()}
        assert "TXN002" not in ids and "TXN003" not in ids

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.name and rule.summary and rule.rationale, rule.rule_id


class TestParseErrors:
    def test_syntax_error_becomes_parse_finding(self):
        result = lint("def broken(:\n")
        assert [f.rule for f in result.findings] == ["PARSE"]
        assert "syntax error" in result.findings[0].message


class TestFindingFormat:
    def test_editor_line_shape(self):
        result = lint(FIRING)
        line = result.findings[0].format()
        assert line.startswith("src/repro/core/sample.py:3:12 FLT001 ")


class TestLintPaths:
    def test_walk_is_deterministic_and_recursive(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("def f(a: float) -> bool:\n    return a == 0.5\n")
        (pkg / "a.py").write_text("def g(a: float) -> bool:\n    return a == 1.5\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "junk.py").write_text("x = 1\n")
        result = lint_paths([str(tmp_path / "src")])
        assert result.files == 2
        assert [f.path.rsplit("/", 1)[1] for f in result.findings] == ["a.py", "b.py"]
