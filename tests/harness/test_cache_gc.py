"""Tests for run-cache garbage collection (stale-fingerprint pruning)
and its ``chargecache-harness cache gc`` CLI surface."""

import json
import os

import pytest

from repro.harness import cli
from repro.harness.cache import (
    RunCache,
    SCHEMA_VERSION,
    cache_key,
    code_fingerprint,
    result_to_json,
)
from repro.harness.runner import Scale, run_spec_ex, workload_spec

TINY = Scale(single_core_instructions=2000, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)


@pytest.fixture
def seeded(tmp_path):
    """A cache dir holding one current entry and one stale entry.

    The stale entry is a realistic envelope written under a different
    code fingerprint — exactly what a source edit leaves behind.
    """
    from repro.harness import runner
    root = tmp_path / "cache"
    with runner.executing(cache_dir=str(root)):
        runner.clear_memo()
        spec = workload_spec("libquantum", "none", TINY)
        result, source = run_spec_ex(spec)
        assert source == "computed"
        cache = RunCache(str(root))
        assert len(cache) == 1
        current_key = cache_key(spec)

        stale_key = "f" * 64
        envelope = {
            "schema": SCHEMA_VERSION,
            "key": stale_key,
            "fingerprint": "deadbeef" * 8,   # not the current sources
            "spec": spec.key_payload(),
            "result": result_to_json(result),
        }
        with open(cache.path_for(stale_key), "w", encoding="ascii") as fh:
            json.dump(envelope, fh)

        yield cache, current_key, stale_key
    runner.clear_memo()


class TestGC:
    def test_dry_run_lists_but_keeps(self, seeded):
        cache, current_key, stale_key = seeded
        report = cache.gc(dry_run=True)
        assert [key for key, _ in report.stale] == [stale_key]
        assert report.stale[0][1] == "code fingerprint mismatch"
        assert report.removed == 0
        assert report.kept == 1
        assert stale_key in cache.keys()  # nothing deleted

    def test_gc_prunes_only_stale(self, seeded):
        cache, current_key, stale_key = seeded
        report = cache.gc()
        assert report.removed == 1
        assert stale_key not in cache.keys()
        assert current_key in cache.keys()
        # Idempotent: a second pass finds nothing.
        again = cache.gc()
        assert again.stale == [] and again.kept == 1

    def test_gc_treats_corrupt_as_stale(self, seeded):
        cache, current_key, stale_key = seeded
        bad_key = "0" * 64
        with open(cache.path_for(bad_key), "w", encoding="ascii") as fh:
            fh.write("{not json")
        report = cache.gc()
        assert ("0" * 64, "unreadable") in report.stale
        assert bad_key not in cache.keys()
        assert current_key in cache.keys()

    def test_gc_sweeps_only_aged_stray_tmp_files(self, seeded):
        from repro.harness.cache import TMP_SWEEP_AGE_S
        cache, _, _ = seeded
        stray = os.path.join(cache.root, "writer-crashed.tmp")
        with open(stray, "w") as fh:
            fh.write("partial")
        # Fresh temps may belong to an in-flight writer in another
        # process: gc must leave them alone.
        report = cache.gc()
        assert os.path.exists(stray)
        assert not any(name == "writer-crashed.tmp"
                       for name, _ in report.stale)
        # Once aged past the threshold it's a crashed writer's orphan:
        # a dry run lists it (so the report matches what a real gc
        # would do) but only the real pass deletes it.
        old = os.path.getmtime(stray) - TMP_SWEEP_AGE_S - 60
        os.utime(stray, (old, old))
        report = cache.gc(dry_run=True)
        assert ("writer-crashed.tmp", "stray writer temp") in report.stale
        assert os.path.exists(stray)   # dry run leaves temps alone
        report = cache.gc()
        assert not os.path.exists(stray)
        assert report.removed == 1

    def test_tmp_sweep_immune_to_host_clock_skew(self, seeded,
                                                 monkeypatch):
        """Regression: the orphan sweep must age ``.tmp`` files against
        the directory's own clock, not ``time.time()``.

        With an NFS-mounted cache dir the server stamps mtimes from
        *its* clock; a skewed host used to compute ``cutoff =
        time.time() - AGE`` and could sweep a freshly-written in-flight
        temp (host fast) or keep a crashed orphan forever (host slow).
        Simulate hours of skew in both directions and check neither
        failure happens.
        """
        import time as time_mod

        from repro.harness.cache import TMP_SWEEP_AGE_S
        cache, _, _ = seeded
        fresh = os.path.join(cache.root, "inflight-writer.tmp")
        with open(fresh, "w") as fh:
            fh.write("partial")

        real_time = time_mod.time
        for skew in (2 * TMP_SWEEP_AGE_S, -2 * TMP_SWEEP_AGE_S):
            monkeypatch.setattr(time_mod, "time",
                                lambda s=skew: real_time() + s)
            report = cache.gc(dry_run=True)
            assert not any(name == "inflight-writer.tmp"
                           for name, _ in report.stale), \
                f"fresh temp swept under {skew:+.0f}s host skew"
        monkeypatch.setattr(time_mod, "time", real_time)

        # A genuinely old orphan (by the directory's clock) is still
        # collected even when the host clock runs slow.
        old = os.path.getmtime(fresh) - TMP_SWEEP_AGE_S - 60
        os.utime(fresh, (old, old))
        monkeypatch.setattr(time_mod, "time",
                            lambda: real_time() - 2 * TMP_SWEEP_AGE_S)
        report = cache.gc()
        assert not os.path.exists(fresh)

    def test_explicit_fingerprint(self, seeded):
        cache, current_key, stale_key = seeded
        # Under the stale entry's own fingerprint, roles swap.
        report = cache.gc(fingerprint="deadbeef" * 8, dry_run=True)
        assert [key for key, _ in report.stale] == [current_key]
        assert code_fingerprint() != "deadbeef" * 8


class TestCLI:
    def test_cache_gc_dry_run_then_prune(self, seeded, capsys):
        cache, current_key, stale_key = seeded
        assert cli.main(["cache", "gc", "--dry-run",
                         "--cache-dir", cache.root]) == 0
        out = capsys.readouterr().out
        assert stale_key in out and "would remove 1" in out
        assert stale_key in cache.keys()

        assert cli.main(["cache", "gc", "--cache-dir", cache.root]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert stale_key not in cache.keys()
        assert current_key in cache.keys()

    def test_cache_without_action_shows_help(self, capsys):
        assert cli.main(["cache"]) == 2
