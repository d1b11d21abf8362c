"""Framework-level behavior: pragmas, findings, reports, CLI."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.analysis.base import Finding, scan_pragmas
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import KNOWN_RULES, iter_python_files, run_lint
from repro.analysis.report import render_json, render_text


@pytest.fixture
def clock_read(tmp_path):
    """A module with one determinism finding."""
    mod = tmp_path / "clock.py"
    mod.write_text("import time\nSTAMP = time.time()\n")
    return str(mod)


class TestFinding:
    def test_format_is_compiler_style(self):
        finding = Finding(file="a/b.py", line=7, rule="determinism",
                          message="no clocks")
        assert finding.format() == "a/b.py:7:determinism: no clocks"

    def test_json_round_trip(self):
        finding = Finding(file="a.py", line=1, rule="r", message="m")
        assert finding.to_json() == {
            "file": "a.py", "line": 1, "rule": "r", "message": "m"}

    def test_orderable_for_stable_reports(self):
        a = Finding(file="a.py", line=2, rule="r", message="m")
        b = Finding(file="a.py", line=10, rule="r", message="m")
        assert sorted([b, a]) == [a, b]


class TestPragmaParsing:
    def test_well_formed_with_reason(self):
        (pragma,) = scan_pragmas(
            "x = 1  # repro: allow(determinism) -- startup stamp\n",
            "f.py")
        assert pragma.rule == "determinism"
        assert pragma.reason == "startup stamp"
        assert pragma.well_formed and pragma.justified

    def test_missing_reason_is_unjustified(self):
        (pragma,) = scan_pragmas(
            "x = 1  # repro: allow(determinism)\n", "f.py")
        assert pragma.well_formed and not pragma.justified

    def test_malformed_body_is_not_well_formed(self):
        (pragma,) = scan_pragmas(
            "x = 1  # repro: allowed(determinism) -- why\n", "f.py")
        assert not pragma.well_formed

    def test_pragma_text_in_string_literal_is_ignored(self):
        source = 's = "# repro: allow(determinism) -- nope"\n'
        assert scan_pragmas(source, "f.py") == []

    def test_ordinary_comments_are_ignored(self):
        assert scan_pragmas("x = 1  # plain comment\n", "f.py") == []


class TestRuleRegistry:
    def test_determinism_is_the_only_rule(self):
        assert KNOWN_RULES == ("determinism",)


class TestDiscoveryAndParse:
    def test_walk_skips_pycache_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [f.rsplit("/", 1)[-1] for f in files] == [
            "a.py", "b.py"]

    def test_syntax_error_is_a_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        report = run_lint([str(bad)])
        (finding,) = report.findings
        assert finding.rule == "parse"
        assert "syntax error" in finding.message


class TestReporters:
    def test_text_report_tail_summary(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        report = run_lint([str(clean)])
        text = render_text(report)
        assert text.endswith("0 findings in 1 files (0 pragmas)")

    def test_json_report_shape(self, clock_read):
        report = run_lint([clock_read])
        payload = json.loads(render_json(report))
        assert payload["schema"] == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert {f["rule"] for f in payload["findings"]} == {
            "determinism"}


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, clock_read, capsys):
        assert lint_main([clock_read]) == 1
        assert "determinism" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["/no/such/path.py"]) == 2

    def test_json_artifact_written_even_with_findings(self, clock_read,
                                                      tmp_path):
        out = tmp_path / "findings.json"
        assert lint_main([clock_read, "--json", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False and payload["findings"]

    def test_python_m_repro_lint(self, clock_read, tmp_path):
        """CI's spelling, run as a subprocess."""
        out = tmp_path / "findings.json"
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", clock_read,
             "--json", str(out)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1, proc.stderr
        assert ":determinism: time.time" in proc.stdout
        assert json.loads(out.read_text())["findings"]


class TestPragmaDiscipline:
    def test_justified_pragma_suppresses(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import time\n"
            "t = time.time()  "
            "# repro: allow(determinism) -- boot stamp only\n")
        report = run_lint([str(mod)])
        assert report.findings == []
        assert report.pragmas_seen == 1

    def test_unjustified_pragma_does_not_suppress(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import time\n"
            "t = time.time()  # repro: allow(determinism)\n")
        report = run_lint([str(mod)])
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["determinism", "pragma"]

    @pytest.mark.parametrize("comment,fragment", [
        ("# repro: allow(determinism)", "has no justification"),
        ("# repro: allow(bogus) -- why", "unknown rule 'bogus'"),
        ("# repro: suppress(determinism) -- why", "malformed pragma"),
    ])
    def test_bad_pragma_messages(self, tmp_path, comment, fragment):
        mod = tmp_path / "mod.py"
        mod.write_text(f"x = 1  {comment}\n")
        report = run_lint([str(mod)])
        assert any(f.rule == "pragma" and fragment in f.message
                   for f in report.findings)

    def test_unused_pragma_is_flagged(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "x = 1  # repro: allow(determinism) -- stale excuse\n")
        report = run_lint([str(mod)])
        (finding,) = report.findings
        assert finding.rule == "pragma"
        assert "unused pragma allow(determinism)" in finding.message
