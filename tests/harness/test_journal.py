"""Tests for the sweep completion journal (harness.journal)."""

import json
import os

from repro.harness.journal import SweepJournal

from tests.helpers import journal_sources


class TestRecordAndLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "sweep.journal")
        with SweepJournal(path) as journal:
            assert journal.record("k1", label="a", source="computed")
            assert journal.record("k2", label="b", source="disk")
        loaded = SweepJournal(path)
        assert len(loaded) == 2
        assert "k1" in loaded and "k2" in loaded
        assert journal_sources(loaded) == {"k1": "computed", "k2": "disk"}

    def test_idempotent_append(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "j"))
        assert journal.record("k1")
        assert not journal.record("k1")
        assert not journal.record("k1", source="disk")
        assert len(journal) == 1
        assert journal_sources(journal).get("k1") == "computed"

    def test_seq_orders_entries(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "j"))
        for key in ("c", "a", "b"):
            journal.record(key)
        entries = list(journal.entries())
        assert [e["key"] for e in entries] == ["c", "a", "b"]
        assert [e["seq"] for e in entries] == [1, 2, 3]

    def test_reload_continues_seq(self, tmp_path):
        path = str(tmp_path / "j")
        SweepJournal(path).record("k1")
        journal = SweepJournal(path)
        journal.record("k2")
        assert [e["seq"] for e in journal.entries()] == [1, 2]


class TestCrashTolerance:
    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "j")
        journal = SweepJournal(path)
        journal.record("k1")
        journal.record("k2")
        journal.close()
        with open(path, "a", encoding="ascii") as fh:
            fh.write('{"key": "k3", "la')  # crash mid-write
        reloaded = SweepJournal(path)
        assert set(journal_sources(reloaded)) == {"k1", "k2"}
        # And the journal stays appendable after the torn tail.
        assert reloaded.record("k4")
        assert "k4" in set(journal_sources(SweepJournal(path)))

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "j")
        journal = SweepJournal(path)
        journal.record("k1")
        journal.close()
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\n\n")
        assert set(journal_sources(SweepJournal(path))) == {"k1"}

    def test_missing_file_is_empty(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "absent"))
        assert len(journal) == 0
        assert set(journal_sources(journal)) == set()


class TestFormat:
    def test_lines_are_compact_sorted_json(self, tmp_path):
        path = str(tmp_path / "j")
        SweepJournal(path).record("k1", label="x", source="computed")
        with open(path, encoding="ascii") as fh:
            line = fh.readline().rstrip("\n")
        assert line == json.dumps(
            {"key": "k1", "label": "x", "seq": 1, "source": "computed"},
            sort_keys=True, separators=(",", ":"))

    def test_no_timestamps(self, tmp_path):
        path = str(tmp_path / "j")
        SweepJournal(path).record("k1")
        entry = next(SweepJournal(path).entries())
        assert set(entry) == {"key", "label", "seq", "source"}

    def test_parent_dir_created(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "j")
        SweepJournal(nested).record("k1")
        assert os.path.exists(nested)
