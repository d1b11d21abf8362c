"""Tests for the run store's envelope files and claim leases.

:class:`~repro.harness.cache.RunCache` is the one persistence model;
:class:`~repro.harness.store.FileClaimer` adds distributed-sweep claim
leases (``claims/<key>.lease``) beside its envelopes.
"""

import glob
import os
import threading

import pytest

from repro.harness import cache as run_cache
from repro.harness import runner
from repro.harness.spec import RunSpec, Scale
from repro.harness.store import FileClaimer

TINY = Scale(single_core_instructions=1500, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

SPEC = RunSpec(kind="single", name="hmmer", mechanism="none", scale=TINY,
               engine="event")
KEY = run_cache.cache_key(SPEC)


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    runner.clear_memo()
    with runner.executing(use_run_cache=False):
        yield
    runner.clear_memo()


def _result():
    return runner.run_spec(SPEC)


def _claim(claimer):
    """Whether ``claimer`` wins the claim on :data:`KEY`."""
    return claimer.claim_many([KEY])[0]


def _age(path, store, seconds):
    """Backdate ``path`` to ``seconds`` before the directory's now."""
    then = store._directory_now() - seconds
    os.utime(path, (then, then))


class TestRunCacheEnvelopes:
    def test_round_trip(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        result = _result()
        assert not store.contains(KEY)
        store.put(KEY, SPEC, result)
        assert store.contains(KEY)
        assert store.keys() == [KEY]
        hit = store.get(KEY)
        assert hit.ipcs == result.ipcs
        envelope = store.get_envelope(KEY)
        assert envelope["key"] == KEY
        assert envelope["schema"] == run_cache.SCHEMA_VERSION

    def test_get_envelope_tolerates_corruption(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        store.put(KEY, SPEC, _result())
        with open(store.path_for(KEY), "w", encoding="ascii") as fh:
            fh.write("{not json")
        assert store.get_envelope(KEY) is None
        assert store.get(KEY) is None

    def test_get_counts_hits_and_misses(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        assert store.get(KEY) is None
        store.put(KEY, SPEC, _result())
        assert store.get(KEY) is not None
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)


class TestRunnerBinding:
    def test_plain_dir_binding_unchanged(self, tmp_path):
        runner.configure_disk_cache(str(tmp_path / "c"))
        disk = runner.active_disk_cache()
        assert isinstance(disk, run_cache.RunCache)
        assert disk.root == str(tmp_path / "c")


class TestFileClaimer:
    def test_exactly_one_claim_wins(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        a = FileClaimer(store, owner="a")
        b = FileClaimer(store, owner="b")
        assert _claim(a)
        assert not _claim(b)
        assert not _claim(a)   # claims are not re-entrant
        with open(a.lease_path(KEY), encoding="utf-8") as fh:
            assert fh.read() == "a"

    def test_release_reopens_the_claim(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        a = FileClaimer(store, owner="a")
        assert _claim(a)
        a.release(KEY)
        assert not os.path.exists(a.lease_path(KEY))
        assert _claim(FileClaimer(store, owner="b"))
        a.release("0" * 64)   # releasing an unheld key is a no-op

    def test_claim_after_winner_finished_loses(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        winner = FileClaimer(store, owner="winner")
        assert _claim(winner)
        store.put(KEY, SPEC, _result())   # envelope before done
        winner.done(KEY)
        assert not os.path.exists(winner.lease_path(KEY))
        # No lease, but the envelope exists: the key is done, for
        # stealers too.
        assert not _claim(FileClaimer(store, owner="late"))
        assert not _claim(FileClaimer(store, owner="late",
                                      steal_stale_s=0.0))

    def test_fresh_lease_is_not_stolen(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        assert _claim(FileClaimer(store, owner="slow"))
        assert not _claim(FileClaimer(store, owner="thief",
                                      steal_stale_s=3600.0))

    def test_stale_lease_is_stolen_only_when_enabled(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        dead = FileClaimer(store, owner="dead")
        assert _claim(dead)
        _age(dead.lease_path(KEY), store, 120.0)
        assert not _claim(FileClaimer(store, owner="polite"))
        thief = FileClaimer(store, owner="thief", steal_stale_s=60.0)
        assert _claim(thief)
        with open(thief.lease_path(KEY), encoding="utf-8") as fh:
            assert fh.read() == "thief"

    def test_two_racing_stealers_of_one_stale_lease(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        dead = FileClaimer(store, owner="dead")
        assert _claim(dead)
        _age(dead.lease_path(KEY), store, 120.0)
        # Separate instances hold separate lock descriptors, so the
        # threads contend on claims.lock exactly as processes would.
        stealers = [FileClaimer(run_cache.RunCache(str(tmp_path)),
                                owner=f"s{i}", steal_stale_s=60.0)
                    for i in range(2)]
        barrier = threading.Barrier(len(stealers))
        wins = []

        def steal(claimer):
            barrier.wait()
            wins.append((claimer.owner, _claim(claimer)))

        threads = [threading.Thread(target=steal, args=(s,))
                   for s in stealers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [owner for owner, won in wins if won]
        assert len(winners) == 1, wins
        with open(dead.lease_path(KEY), encoding="utf-8") as fh:
            assert fh.read() == winners[0]

    def test_leases_invisible_to_keys_len_clear_and_listing(
            self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        claimer = FileClaimer(store, owner="me")
        keys = [f"{i:064x}" for i in range(3)]
        assert claimer.claim_many(keys) == [True] * 3
        assert store.keys() == []
        assert len(store) == 0
        assert glob.glob(os.path.join(store.root, "*.json")) == []
        report = store.gc()
        assert (report.stale, report.kept, report.removed) == ([], 0, 0)
        assert store.clear() == 0
        assert all(os.path.exists(claimer.lease_path(k)) for k in keys)

    def test_gc_sweeps_only_aged_leases(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        claimer = FileClaimer(store, owner="me")
        old, young = "a" * 64, "b" * 64
        assert claimer.claim_many([old, young]) == [True, True]
        _age(claimer.lease_path(old), store,
             run_cache.TMP_SWEEP_AGE_S + 60)
        name = f"claims/{old}.lease"
        dry = store.gc(dry_run=True)
        assert dry.stale == [(name, "abandoned claim lease")]
        assert dry.removed == 0
        assert os.path.exists(claimer.lease_path(old))
        report = store.gc()
        assert report.stale == [(name, "abandoned claim lease")]
        assert report.removed == 1
        assert not os.path.exists(claimer.lease_path(old))
        assert os.path.exists(claimer.lease_path(young))
