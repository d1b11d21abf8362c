"""Tier-1 gate: the shipped tree lints clean, and breaking the
determinism invariant is caught.

This is the test the CI ``static-analysis`` job duplicates from the
outside; keeping it in tier-1 means `pytest` alone refuses a tree
with findings or unjustified pragmas, whether or not CI runs.
"""

import os

import repro
from repro.analysis.engine import run_lint

SRC = os.path.dirname(os.path.abspath(repro.__file__))


class TestShippedTreeIsClean:
    def test_zero_findings_over_src(self):
        report = run_lint([SRC])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.ok, f"repro lint found:\n{formatted}"

    def test_every_pragma_is_used_and_justified(self):
        # Redundant with test_zero_findings_over_src (bad pragmas are
        # findings) but states the satellite requirement directly.
        report = run_lint([SRC])
        assert not [f for f in report.findings
                    if f.rule == "pragma"]

    def test_tree_is_nontrivial(self):
        report = run_lint([SRC])
        assert report.files_checked > 50


class TestBreakingAnInvariantIsCaught:
    def test_clock_read_added_to_fingerprinted_module(self, tmp_path):
        dst = tmp_path / "mod.py"
        dst.write_text("import time\nSTAMP = time.time()\n")
        report = run_lint([str(dst)])
        assert any(f.rule == "determinism" for f in report.findings)
