"""``repro lint`` CLI: exit codes, output formats, self-lint."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]

FIRING = "def same(a: float, b: float) -> bool:\n    return a == b\n"
CLEAN = "def same(a: float, b: float) -> bool:\n    return abs(a - b) <= 1e-6\n"


@pytest.fixture
def firing_tree(tmp_path):
    """A tiny tree with exactly one FLT001 finding."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "sample.py").write_text(FIRING)
    return tmp_path


def lint(*args: str) -> int:
    return main(["lint", *args])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "sample.py").write_text(CLEAN)
        assert lint(str(tmp_path / "src")) == 0

    def test_findings_exit_one(self, firing_tree, capsys):
        assert lint(str(firing_tree / "src")) == 1

    def test_unknown_rule_id_exits_two(self, firing_tree, capsys):
        assert lint("--select", "NOPE99", str(firing_tree / "src")) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_empty_selection_exits_two(self, firing_tree, capsys):
        code = lint(
            "--select", "FLT001", "--ignore", "FLT001", str(firing_tree / "src")
        )
        assert code == 2

    def test_missing_path_exits_two_before_linting(self, firing_tree, capsys):
        typo = str(firing_tree / "srcc")
        assert lint(typo, str(firing_tree / "src")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro lint: no such file or directory: {typo}\n"

    def test_unwritable_output_exits_two_before_linting(self, firing_tree, capsys):
        report = firing_tree / "missing-dir" / "lint.json"
        assert lint("--output", str(report), str(firing_tree / "src")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro lint: cannot write {report}: ")
        assert not report.exists()


class TestOutput:
    def test_text_format_is_editor_stable(self, firing_tree, capsys):
        lint(str(firing_tree / "src"))
        out_line = capsys.readouterr().out.strip().splitlines()[0]
        path, line, rest = out_line.split(":", 2)
        col, rule, _message = rest.split(" ", 2)
        assert path.endswith("sample.py")
        assert int(line) == 2 and int(col) >= 1
        assert rule == "FLT001"

    def test_summary_goes_to_stderr(self, firing_tree, capsys):
        lint(str(firing_tree / "src"))
        err = capsys.readouterr().err
        assert "1 finding(s)" in err

    def test_json_format(self, firing_tree, capsys):
        lint("--format", "json", str(firing_tree / "src"))
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 3
        assert "FLT001" in doc["rules"]
        assert doc["summary"]["findings"] == 1
        assert doc["findings"][0]["rule"] == "FLT001"
        assert doc["findings"][0]["snippet"] == "return a == b"

    def test_output_file_written_regardless_of_format(self, firing_tree, capsys):
        report = firing_tree / "lint.json"
        lint("--output", str(report), str(firing_tree / "src"))
        out = capsys.readouterr().out
        assert "{" not in out  # stdout stayed in text format
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 3
        assert doc["summary"]["findings"] == 1

    def test_select_and_ignore(self, firing_tree, capsys):
        assert lint("--select", "DET001", str(firing_tree / "src")) == 0
        assert lint("--ignore", "FLT001", str(firing_tree / "src")) == 0

    def test_list_rules(self, capsys):
        assert lint("--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "FLT001", "OBS001", "TXN001"):
            assert rule_id in out


class TestRepoIsClean:
    """The committed tree must lint clean: zero unsuppressed findings."""

    def test_src_has_zero_unsuppressed_findings(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint("src") == 0
        err = capsys.readouterr().err
        assert "0 finding(s)" in err

    def test_tests_lint_clean_too(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint("src", "tests") == 0

    def test_module_entrypoint_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_clean_from_another_directory(self, tmp_path):
        # Suppressions live on the source lines, so the verdict does not
        # depend on the working directory.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stderr


class TestTypingConfig:
    def test_mypy_config_present_and_strict_on_core(self):
        doc = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        mypy = doc["tool"]["mypy"]
        assert mypy["packages"] == ["repro"]
        overrides = doc["tool"]["mypy"]["overrides"]
        strict = next(
            o for o in overrides if "repro.core.*" in o.get("module", [])
        )
        assert strict["disallow_untyped_defs"] is True
        assert "repro.linksched.*" in strict["module"]
        assert "repro.analysis.*" in strict["module"]

    def test_py_typed_marker_ships(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
        package_data = tomllib.loads(
            (REPO_ROOT / "pyproject.toml").read_text()
        )["tool"]["setuptools"]["package-data"]
        assert "py.typed" in package_data["repro"]

    @pytest.mark.skipif(
        importlib.util.find_spec("mypy") is None,
        reason="mypy not installed in this environment",
    )
    def test_mypy_passes_on_strict_core(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout
