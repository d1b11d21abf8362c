"""Tests for the run store's envelope files.

:class:`~repro.harness.cache.RunCache` is the one persistence model.
"""

import os

import pytest

from repro.harness import cache as run_cache
from repro.harness import runner
from repro.harness.spec import RunSpec, Scale

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


class TestRunCacheEnvelopes:
    def test_round_trip(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        result = _result()
        assert store.keys() == []
        store.put(KEY, SPEC, result)
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

    def test_get_misses_then_hits_after_put(self, tmp_path):
        store = run_cache.RunCache(str(tmp_path))
        assert store.get(KEY) is None
        store.put(KEY, SPEC, _result())
        assert store.get(KEY) is not None

    def test_older_claim_files_are_ignored(self, tmp_path):
        """Stores written by older versions may hold a ``claims/``
        directory and ``claims.lock``; listing, gc and clear leave
        them alone."""
        store = run_cache.RunCache(str(tmp_path))
        store.put(KEY, SPEC, _result())
        os.makedirs(os.path.join(store.root, "claims"))
        lease = os.path.join(store.root, "claims", "0" * 64 + ".lease")
        for path in (lease, os.path.join(store.root, "claims.lock")):
            open(path, "w").close()
            os.utime(path, (0, 0))
        assert store.keys() == [KEY] and len(store) == 1
        report = store.gc()
        assert (report.stale, report.kept, report.removed) == ([], 1, 0)
        assert store.clear() == 1
        assert os.path.exists(lease)


class TestRunnerBinding:
    def test_plain_dir_binding_unchanged(self, tmp_path):
        runner.configure_disk_cache(str(tmp_path / "c"))
        disk = runner.active_disk_cache()
        assert isinstance(disk, run_cache.RunCache)
        assert disk.root == str(tmp_path / "c")
