"""Tests for the sweep completion journal (harness.journal)."""

import json
import os

import pytest

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


class TestDurability:
    def test_record_flushes_then_fsyncs_its_file(self, tmp_path,
                                                 monkeypatch):
        """Each checkpoint is on disk before ``record`` returns: the
        journal's own file is fsynced, after its line was flushed."""
        path = str(tmp_path / "j")
        synced = []

        def fsync(fd):
            same_file = os.path.samestat(os.fstat(fd), os.stat(path))
            with open(path, encoding="ascii") as fh:
                synced.append((same_file, fh.read().splitlines()))

        monkeypatch.setattr(os, "fsync", fsync)
        journal = SweepJournal(path)
        for done, key in enumerate(("k1", "k2"), start=1):
            journal.record(key)
            assert len(synced) == done, "record returned unsynced"
            same_file, lines = synced[-1]
            assert same_file
            assert [json.loads(line)["key"] for line in lines] \
                == ["k1", "k2"][:done], "fsync ran before the flush"
        journal.close()

    def test_failed_fsync_leaves_the_key_unrecorded(self, tmp_path,
                                                    monkeypatch):
        """A checkpoint that may not be on disk is not reported as
        recorded, so the next ``record`` of the key tries again."""
        journal = SweepJournal(str(tmp_path / "j"))

        def failing_fsync(fd):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            journal.record("k1")
        assert "k1" not in journal
        monkeypatch.undo()
        assert journal.record("k1")
        journal.close()


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
