"""Tier-1 gate: the shipped tree lints clean, and breaking an
invariant is caught.

This is the test the CI ``static-analysis`` job duplicates from the
outside; keeping it in tier-1 means `pytest` alone refuses a tree
with findings or unjustified pragmas, whether or not CI runs.
"""

import os
import shutil

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
    """Deliberately violate each invariant in a scratch copy."""

    def _copy_spec(self, tmp_path):
        dst = tmp_path / "spec.py"
        shutil.copy(os.path.join(SRC, "harness", "spec.py"), dst)
        return dst

    def test_new_unclassified_runspec_field(self, tmp_path):
        dst = self._copy_spec(tmp_path)
        source = dst.read_text()
        source = source.replace(
            "    kind: str\n",
            "    kind: str\n    new_knob: int = 0\n")
        dst.write_text(source)
        report = run_lint([str(dst)])
        assert any(f.rule == "spec-keys"
                   and "'new_knob' is classified neither"
                   in f.message
                   for f in report.findings)

    def test_clock_read_added_to_fingerprinted_module(self, tmp_path):
        dst = tmp_path / "mod.py"
        dst.write_text("import time\nSTAMP = time.time()\n")
        report = run_lint([str(dst)])
        assert any(f.rule == "determinism" for f in report.findings)

    def test_unsynced_rename_added_to_cache(self, tmp_path):
        dst = tmp_path / "cache.py"
        source = open(os.path.join(SRC, "harness", "cache.py")).read()
        assert "os.fsync(fh.fileno())\n" in source
        dst.write_text(source.replace("os.fsync(fh.fileno())\n", "\n"))
        report = run_lint([str(dst)])
        assert any(f.rule == "service-concurrency"
                   for f in report.findings)

    def test_registered_mechanism_without_forks(self, tmp_path):
        dst = tmp_path / "mech.py"
        dst.write_text(
            "from repro.core.registry import register_mechanism\n"
            "class Lone:\n"
            "    pass\n"
            "@register_mechanism('lone')\n"
            "def _build(ctx) -> Lone:\n"
            "    return Lone()\n")
        report = run_lint([str(dst)])
        assert any(f.rule == "registry-contract"
                   and "'Lone'" in f.message
                   for f in report.findings)
