"""Exact-message coverage for the ``service-concurrency`` rule."""

import os
import shutil

import repro
from tests.analysis.helpers import lint_fixture, rule_findings

SRC = os.path.dirname(os.path.abspath(repro.__file__))


def _rule_findings(path):
    from repro.analysis.engine import run_lint
    report = run_lint([str(path)])
    return [f for f in report.findings if f.rule == "service-concurrency"]


class TestServiceConcurrencyFixture:
    def setup_method(self):
        self.findings = rule_findings(
            lint_fixture("service", "conc_bad.py"),
            "service-concurrency")

    def test_rename_without_fsync(self):
        assert (14, "os.rename() without a preceding fsync in the "
                    "same function; an unsynced rename can publish "
                    "an empty file after a crash") in self.findings

    def test_sanctioned_patterns_are_clean(self):
        # fsync-then-rename and str.replace add nothing beyond the one
        # intended finding.
        assert len(self.findings) == 1

    def test_rule_is_path_scoped(self, tmp_path):
        """The same code outside a service/ directory is not checked."""
        from tests.analysis.helpers import fixture
        elsewhere = tmp_path / "conc_bad.py"
        shutil.copy(fixture("service", "conc_bad.py"), elsewhere)
        assert not _rule_findings(elsewhere)

    def test_store_and_journal_modules_are_scoped(self, tmp_path):
        """harness/cache.py, store.py and journal.py publish files
        other processes read: the rule applies to them by basename
        wherever they live."""
        from tests.analysis.helpers import fixture
        for basename in ("cache.py", "store.py", "journal.py"):
            target = tmp_path / basename
            shutil.copy(fixture("service", "conc_bad.py"), target)
            assert _rule_findings(target), basename

    def test_shipped_persistence_modules_are_clean(self, tmp_path):
        """The envelope writer, claim leases and journal, linted as
        scratch copies under the scoped rule, have no findings."""
        for basename in ("cache.py", "store.py", "journal.py"):
            target = tmp_path / basename
            shutil.copy(os.path.join(SRC, "harness", basename), target)
            assert not _rule_findings(target), basename
