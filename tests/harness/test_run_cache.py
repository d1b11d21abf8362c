"""Tests for the persistent content-addressed run cache."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.harness import cache
from repro.harness import runner
from repro.harness import spec as spec_module
from repro.harness.cache import (
    RunCache,
    cache_key,
    code_fingerprint,
    result_from_json,
    result_to_json,
)
from repro.harness.spec import RunSpec, Scale

TINY = Scale(single_core_instructions=2000, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

SPEC = RunSpec(kind="single", name="hmmer", mechanism="chargecache",
               scale=TINY, enable_rltl=True, seed=3, engine="event")


@pytest.fixture
def bound_cache(tmp_path):
    """Re-bind the runner's disk layer to a fresh dir; restore after."""
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "cache")):
        yield runner.active_disk_cache()
    runner.clear_memo()


class TestCacheKey:
    def test_stable_within_process(self):
        assert cache_key(SPEC) == cache_key(SPEC)
        # Equal specs built independently hash identically.
        twin = RunSpec(kind="single", name="hmmer",
                       mechanism="chargecache", scale=TINY,
                       enable_rltl=True, seed=3, engine="event")
        assert cache_key(twin) == cache_key(SPEC)

    def test_stable_across_processes(self):
        """Same spec -> same key in a fresh interpreter (no PYTHONHASHSEED
        or dict-order dependence)."""
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        script = (
            "from repro.harness.cache import cache_key\n"
            "from repro.harness.spec import RunSpec, Scale\n"
            "spec = RunSpec(kind='single', name='hmmer', "
            "mechanism='chargecache', "
            "scale=Scale(single_core_instructions=2000, "
            "multi_core_instructions=1000, warmup_cpu_cycles=1000, "
            "max_mem_cycles=300_000), enable_rltl=True, seed=3, "
            "engine='event')\n"
            "print(cache_key(spec))\n")
        env = dict(os.environ,
                   PYTHONPATH=src_root + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == cache_key(SPEC)

    def test_every_field_change_changes_key(self):
        base = cache_key(SPEC)
        variants = {
            "kind": "eight",
            "name": "mcf",
            "mechanism": "none",
            "scale": TINY.scaled(2.0),
            "enable_rltl": False,
            "row_policy": "closed",
            "cc_entries": 64,
            "cc_duration_ms": 4.0,
            "cc_unbounded": True,
            "idle_finished": True,
            "seed": 4,
            "engine": "dense",
        }
        # trace_sha256/trace_path have dedicated cases below: the hash
        # is key material, the path deliberately is not.
        assert set(variants) | {"trace_sha256", "trace_path"} == \
            {f.name for f in dataclasses.fields(RunSpec)}, \
            "new RunSpec field needs a key-sensitivity case here"
        keys = {base}
        for field, value in variants.items():
            changed = dataclasses.replace(SPEC, **{field: value})
            key = cache_key(changed)
            assert key != base, f"{field} change did not change the key"
            keys.add(key)
        assert len(keys) == len(variants) + 1  # all pairwise distinct

    def test_trace_field_key_semantics(self):
        """The trace content hash is key material; the path is
        location only — the same bytes must hit the same envelope
        wherever the file lives."""
        trace = dataclasses.replace(SPEC, kind="trace",
                                    trace_sha256="a" * 64,
                                    trace_path="/data/a.trace")
        other_bytes = dataclasses.replace(trace,
                                          trace_sha256="b" * 64)
        moved = dataclasses.replace(trace,
                                    trace_path="/elsewhere/b.trace")
        assert cache_key(other_bytes) != cache_key(trace)
        assert cache_key(moved) == cache_key(trace)

    def test_scale_subfield_changes_key(self):
        changed = dataclasses.replace(
            SPEC, scale=dataclasses.replace(TINY, max_mem_cycles=400_000))
        assert cache_key(changed) != cache_key(SPEC)

    def test_fingerprint_is_part_of_key(self):
        assert cache_key(SPEC, fingerprint="deadbeef") != cache_key(SPEC)

    def test_code_fingerprint_stable_and_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)


#: One spec of each run kind; a kind added to ``RUN_KINDS`` without an
#: entry here fails the partition test below.
KIND_SPECS = {
    "single": RunSpec(kind="single", name="bzip2"),
    "eight": RunSpec(kind="eight", name="w1", mechanism="chargecache"),
    "alone": RunSpec(kind="alone", name="mcf"),
    "trace": RunSpec(kind="trace", name="ext", trace_sha256="a" * 64,
                     trace_path="/data/a.trace"),
}


class TestKeyClassification:
    """``KEY_MATERIAL`` and ``LOCATION_ONLY`` (harness/spec.py) split
    RunSpec's fields, and ``key_payload`` keys exactly the former."""

    def test_current_classification_partitions_exactly(self):
        declared = {f.name for f in dataclasses.fields(RunSpec)}
        material = set(spec_module.KEY_MATERIAL)
        location = set(spec_module.LOCATION_ONLY)
        assert material | location == declared
        assert not material & location

    @pytest.mark.parametrize("kind", spec_module.RUN_KINDS)
    def test_key_payload_honors_the_partition(self, kind):
        payload = KIND_SPECS[kind].key_payload()
        assert set(payload) == set(spec_module.KEY_MATERIAL)
        for name in spec_module.LOCATION_ONLY:
            assert name not in payload

    def test_guard_rejects_unclassified_field(self, monkeypatch):
        monkeypatch.setattr(
            spec_module, "KEY_MATERIAL",
            tuple(n for n in spec_module.KEY_MATERIAL
                  if n != "seed"))
        with pytest.raises(AssertionError, match="seed"):
            spec_module._check_key_classification()

    def test_guard_rejects_a_new_runspec_field(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Grown(RunSpec):
            warmup_policy: str = "fixed"

        monkeypatch.setattr(spec_module, "RunSpec", Grown)
        with pytest.raises(AssertionError, match="warmup_policy"):
            spec_module._check_key_classification()

    def test_guard_rejects_overlap(self, monkeypatch):
        monkeypatch.setattr(
            spec_module, "LOCATION_ONLY",
            frozenset(spec_module.LOCATION_ONLY | {"seed"}))
        with pytest.raises(AssertionError,
                           match="both KEY_MATERIAL and "
                                 "LOCATION_ONLY"):
            spec_module._check_key_classification()

    def test_guard_rejects_stale_name(self, monkeypatch):
        monkeypatch.setattr(
            spec_module, "KEY_MATERIAL",
            spec_module.KEY_MATERIAL + ("no_such_field",))
        with pytest.raises(AssertionError, match="no_such_field"):
            spec_module._check_key_classification()

    def test_guard_rejects_duplicates(self, monkeypatch):
        monkeypatch.setattr(
            spec_module, "KEY_MATERIAL",
            spec_module.KEY_MATERIAL + ("seed",))
        with pytest.raises(AssertionError, match="duplicates"):
            spec_module._check_key_classification()


class TestResultCodec:
    def test_round_trip_fidelity(self, bound_cache):
        fresh = runner.run_spec(SPEC)
        assert fresh.rltl is not None
        restored = result_from_json(
            json.loads(json.dumps(result_to_json(fresh))))
        for name in cache._PLAIN_FIELDS:
            assert getattr(restored, name) == getattr(fresh, name), name
        assert restored.config == fresh.config
        assert restored.extra == fresh.extra
        # Derived metrics agree exactly.
        assert restored.total_ipc == fresh.total_ipc
        assert restored.rmpkc() == fresh.rmpkc()
        assert restored.mechanism_hit_rate == fresh.mechanism_hit_rate
        # The restored RLTL probe answers every tracked interval.
        for interval in fresh.rltl.intervals_ms:
            assert restored.rltl.rltl(interval) == \
                fresh.rltl.rltl(interval)
            assert restored.rltl.refresh_fraction(interval) == \
                fresh.rltl.refresh_fraction(interval)
        assert restored.rltl.activations == fresh.rltl.activations
        assert restored.rltl.precharges == fresh.rltl.precharges

    def test_reuse_profiler_round_trip(self):
        from repro.stats.reuse import RowReuseProfiler
        profiler = RowReuseProfiler()
        for row in (1, 2, 3, 1, 2, 1, 9, 1):
            profiler.on_activate(0, 0, 0, row)
        data = json.loads(json.dumps(cache._reuse_to_json(profiler)))
        restored = cache._reuse_from_json(data)
        assert restored.histogram == profiler.histogram
        assert restored.cold == profiler.cold
        assert restored.activations == profiler.activations
        assert list(restored._stack) == list(profiler._stack)
        assert restored.predicted_hit_rate(2) == \
            profiler.predicted_hit_rate(2)
        assert restored.median_reuse_distance() == \
            profiler.median_reuse_distance()

    @pytest.mark.parametrize("block, field, value", [
        ("dram", "bus_freq_mhz", 800.0),
        ("processor", "retire_width", 4),
        # The Table 1 values schema 2 wrote as fields and that are now
        # constants.
        ("processor", "freq_ghz", 4.0),
        ("processor", "issue_width", 3),
        ("processor", "window_size", 128),
        ("processor", "mshrs_per_core", 8),
        ("cache", "line_bytes", 64),
        ("cache", "hit_latency_cycles", 24),
        ("dram", "banks_per_rank", 8),
        ("dram", "row_buffer_bytes", 8 * 1024),
        ("dram", "address_mapping", "RoBaRaCoCh"),
        ("controller", "write_high_watermark", 0.8),
        ("controller", "write_low_watermark", 0.2),
        # The scheduler knob schema 3 wrote; FR-FCFS is the only policy.
        ("controller", "scheduler", "frfcfs"),
        # The rank count schema 4 wrote; Table 1's one rank is a
        # constant.
        ("dram", "ranks_per_channel", 1),
    ])
    def test_config_rejects_a_field_it_does_not_write(self, block, field,
                                                      value):
        """The decoder reads only what ``config_to_json`` writes: a
        field older code wrote is an error, not silently dropped."""
        cfg = runner.build_config("ddr4-2400-c1", "chargecache+nuat")
        data = json.loads(json.dumps(cache.config_to_json(cfg)))
        assert cache.config_from_json(data) == cfg
        data[block][field] = value
        with pytest.raises(TypeError, match=field):
            cache.config_from_json(data)


class TestRunCacheStore:
    def test_persists_across_instances(self, tmp_path):
        store = RunCache(str(tmp_path))
        result = runner._execute_spec(SPEC)
        key = cache_key(SPEC)
        store.put(key, SPEC, result)
        again = RunCache(str(tmp_path))
        loaded = again.get(key)
        assert loaded is not None
        assert loaded.mem_cycles == result.mem_cycles
        assert loaded.ipcs == result.ipcs
        assert key in again.keys()
        assert len(again) == 1

    @pytest.mark.parametrize("schema", [1, 2, 3, 4])
    def test_schema_one_envelope_is_a_miss_everywhere(self, tmp_path,
                                                      capsys, schema):
        """An envelope written by older code is a miss for ``get``,
        absent from ``store_frame`` and ``query``, and stale for
        ``cache gc``: schema 1, with the ``execution`` block and
        ``dram.bus_freq_mhz`` that code wrote, schema 2, which wrote
        Table 1's constants as config fields, schema 3, which still
        wrote the ``controller.scheduler`` knob, and schema 4, which
        wrote ``dram.ranks_per_channel`` and the spec's ``scenario``."""
        from repro.harness import cli
        from repro.harness.aggregate import store_frame
        store = RunCache(str(tmp_path))
        current_key = cache_key(SPEC)
        store.put(current_key, SPEC, runner._execute_spec(SPEC))
        with open(store.path_for(current_key)) as fh:
            envelope = json.load(fh)
        old_key = str(schema) * 64
        envelope.update(schema=schema, key=old_key)
        config = envelope["result"]["config"]
        config["dram"]["ranks_per_channel"] = 1
        envelope["spec"]["scenario"] = None
        if schema <= 3:
            config["controller"]["scheduler"] = "frfcfs"
        if schema <= 2:
            config["processor"].update(freq_ghz=4.0, issue_width=3,
                                       window_size=128, mshrs_per_core=8)
            config["cache"].update(line_bytes=64, hit_latency_cycles=24)
            config["dram"].update(banks_per_rank=8, row_buffer_bytes=8192,
                                  address_mapping="RoBaRaCoCh")
            config["controller"].update(write_high_watermark=0.8,
                                        write_low_watermark=0.2)
        if schema == 1:
            config["execution"] = {"jobs": None, "cache_dir": None,
                                   "use_run_cache": True}
            config["dram"]["bus_freq_mhz"] = 800.0
        with open(store.path_for(old_key), "w") as fh:
            json.dump(envelope, fh)
        assert store.keys() == sorted([current_key, old_key])

        assert store.get(old_key) is None
        assert [row["key"] for row in store_frame(store)] == [current_key]
        capsys.readouterr()
        assert cli.main(["query", "--cache-dir", store.root,
                         "--csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2  # header, 1 row
        assert cli.main(["cache", "gc", "--dry-run",
                         "--cache-dir", store.root]) == 0
        stale = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("stale ")]
        assert stale == [f"stale {old_key}  "
                         f"(schema {schema} != {cache.SCHEMA_VERSION})"]

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = RunCache(str(tmp_path))
        key = cache_key(SPEC)
        os.makedirs(store.root, exist_ok=True)
        with open(store.path_for(key), "w") as fh:
            fh.write("{not json at all")
        assert store.get(key) is None

    def test_non_object_json_is_a_miss(self, tmp_path):
        store = RunCache(str(tmp_path))
        key = cache_key(SPEC)
        os.makedirs(store.root, exist_ok=True)
        for payload in ("null", "[]", '"text"'):
            with open(store.path_for(key), "w") as fh:
                fh.write(payload)
            assert store.get(key) is None, payload

    def test_partial_file_is_a_miss(self, tmp_path):
        store = RunCache(str(tmp_path))
        result = runner._execute_spec(SPEC)
        key = cache_key(SPEC)
        path = store.put(key, SPEC, result)
        with open(path, "r") as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[:len(text) // 2])  # truncated mid-write
        assert store.get(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = RunCache(str(tmp_path))
        result = runner._execute_spec(SPEC)
        key = cache_key(SPEC)
        path = store.put(key, SPEC, result)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["schema"] = cache.SCHEMA_VERSION + 1
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        assert store.get(key) is None

    def test_undecodable_current_envelope_is_a_miss(self, tmp_path):
        """A current-schema envelope whose config the strict decoder
        rejects is a miss for ``get``, not an exception."""
        store = RunCache(str(tmp_path))
        key = cache_key(SPEC)
        path = store.put(key, SPEC, runner._execute_spec(SPEC))
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["result"]["config"]["dram"]["bus_freq_mhz"] = 800.0
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        assert store.get_envelope(key) is not None
        assert store.get(key) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert RunCache(str(tmp_path)).get(cache_key(SPEC)) is None

    def test_clear_removes_entries(self, tmp_path):
        store = RunCache(str(tmp_path))
        result = runner._execute_spec(SPEC)
        store.put(cache_key(SPEC), SPEC, result)
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(cache_key(SPEC)) is None


class TestPutDurability:
    """Regression: ``put`` must fsync the temp file *before* the
    rename (and best-effort the directory after), or a crash can
    persist a rename pointing at unwritten data blocks — a silently
    truncated envelope."""

    def test_data_synced_before_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (events.append("fsync"),
                                        real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace",
                            lambda src, dst:
                            (events.append("replace"),
                             real_replace(src, dst))[1])
        store = RunCache(str(tmp_path))
        result = runner._execute_spec(SPEC)
        store.put(cache_key(SPEC), SPEC, result)
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace"), \
            "temp file must be durable before it becomes visible"

    def test_directory_fsync_failure_is_tolerated(self, tmp_path,
                                                  monkeypatch):
        """A filesystem refusing directory fsync (or O_DIRECTORY)
        must not fail the write — the envelope itself is synced."""
        real_open = os.open

        def deny_dir_open(path, flags, *args, **kwargs):
            if isinstance(path, str) and os.path.isdir(path):
                raise PermissionError("no directory handles here")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", deny_dir_open)
        store = RunCache(str(tmp_path))
        result = runner._execute_spec(SPEC)
        key = cache_key(SPEC)
        store.put(key, SPEC, result)   # must not raise
        assert store.get(key) is not None


class TestReadThrough:
    def test_disk_hit_after_memo_clear(self, bound_cache):
        fresh, source = runner.run_spec_ex(SPEC)
        assert source == "computed"
        runner.clear_memo()
        recalled, source = runner.run_spec_ex(SPEC)
        assert source == "disk"
        assert recalled is not fresh
        assert recalled.ipcs == fresh.ipcs
        # Third call is served by the re-populated memo.
        again, source = runner.run_spec_ex(SPEC)
        assert source == "memory"
        assert again is recalled

    def test_no_cache_bypass(self, tmp_path):
        runner.clear_memo()
        try:
            with runner.executing(cache_dir=str(tmp_path / "c"),
                                  use_run_cache=False):
                assert runner.active_disk_cache() is None
                _, source = runner.run_spec_ex(SPEC)
                assert source == "computed"
                runner.clear_memo()
                _, source = runner.run_spec_ex(SPEC)
                assert source == "computed"  # nothing persisted
                assert not os.path.exists(str(tmp_path / "c"))
        finally:
            runner.clear_memo()

    def test_no_cache_env_bypass(self, bound_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert runner.active_disk_cache() is None
        _, source = runner.run_spec_ex(SPEC)
        assert source == "computed"
        runner.clear_memo()
        _, source = runner.run_spec_ex(SPEC)
        assert source == "computed"

    def test_execution_config_threads_through(self, tmp_path):
        """One installed :class:`Execution` carries the store binding,
        the disable switch and the default pool width."""
        from repro.harness.pool import resolve_jobs
        before = runner.execution
        try:
            with runner.executing(jobs=7,
                                  cache_dir=str(tmp_path / "via-config")):
                disk = runner.active_disk_cache()
                assert disk is not None
                assert disk.root == str(tmp_path / "via-config")
                assert resolve_jobs(None) == 7  # jobs honoured
                assert resolve_jobs(2) == 2     # explicit width wins
                runner.set_execution(runner.Execution(use_run_cache=False))
                assert runner.active_disk_cache() is None
                assert resolve_jobs(None) == 1
            # The scope restores the session binding it replaced.
            assert runner.execution == before
        finally:
            runner.clear_memo()

    def test_clear_caches_never_deletes_default_dir_entries(
            self, tmp_path, monkeypatch):
        """A library caller asking for a fresh in-process state must
        not destroy the shared default cache it never bound."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        runner.clear_memo()
        try:
            with runner.executing(cache_dir=None):  # default resolution
                runner.run_spec(SPEC)
                assert len(runner.active_disk_cache()) == 1
                runner.clear_caches()
                assert len(runner.active_disk_cache()) == 1  # survived
                _, source = runner.run_spec_ex(SPEC)
                assert source == "disk"
        finally:
            runner.clear_memo()

    def test_clear_caches_clears_disk_layer(self, bound_cache):
        runner.run_spec(SPEC)
        disk = runner.active_disk_cache()
        assert len(disk) == 1
        runner.clear_caches()
        disk = runner.active_disk_cache()
        assert len(disk) == 0
        _, source = runner.run_spec_ex(SPEC)
        assert source == "computed"


N_WRITERS = 4

WRITER = """
import hashlib, json, os, sys, time

cache_dir, key, out_dir, go_file = sys.argv[1:5]

from repro.harness.cache import RunCache, cache_key, result_to_json
from repro.harness.spec import RunSpec, Scale

spec = RunSpec(kind="single", name="hmmer", mechanism="chargecache",
               scale=Scale(single_core_instructions=2000,
                           multi_core_instructions=1000,
                           warmup_cpu_cycles=1000,
                           max_mem_cycles=300_000),
               enable_rltl=True, seed=3, engine="event")
assert cache_key(spec) == key
cache = RunCache(cache_dir)
result = cache.get(key)
canonical = json.dumps(result_to_json(result), sort_keys=True)

# Line up on the barrier so the writes really overlap.
pid = os.getpid()
open(os.path.join(out_dir, "ready-%d" % pid), "w").close()
while not os.path.exists(go_file):
    time.sleep(0.005)

# Hammer the shared key: concurrent re-puts must never expose a
# torn/corrupt envelope to any concurrent reader.
for _ in range(15):
    cache.put(key, spec, result)
    seen = cache.get(key)
    assert seen is not None, "reader observed a corrupt envelope"
    got = json.dumps(result_to_json(seen), sort_keys=True)
    assert got == canonical, "reader observed a torn write"

digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
with open(os.path.join(out_dir, "ok-%d" % pid), "w") as fh:
    fh.write(digest)
"""


def test_n_processes_reput_one_key_never_tear(bound_cache, tmp_path):
    """N processes re-put and read one key at once (as pool workers
    share one store): no reader ever sees a torn or corrupt envelope,
    every process reads the same bits, and the store ends with one
    intact envelope and no stray temp file."""
    runner.run_spec(SPEC)
    key = cache_key(SPEC)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    go_file = tmp_path / "go"
    script = tmp_path / "writer.py"
    script.write_text(WRITER)

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))

    writers = [
        subprocess.Popen(
            [sys.executable, str(script), bound_cache.root, key,
             str(out_dir), str(go_file)],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        for _ in range(N_WRITERS)
    ]
    try:
        deadline = time.monotonic() + 120.0
        while len([f for f in os.listdir(out_dir)
                   if f.startswith("ready-")]) < N_WRITERS:
            assert time.monotonic() < deadline, "writers never lined up"
            time.sleep(0.02)
        go_file.touch()
        for writer in writers:
            output, _ = writer.communicate(timeout=300)
            assert writer.returncode == 0, output
    finally:
        for writer in writers:
            if writer.poll() is None:
                writer.kill()

    oks = [f for f in os.listdir(out_dir) if f.startswith("ok-")]
    assert len(oks) == N_WRITERS
    digests = {(out_dir / f).read_text() for f in oks}
    assert len(digests) == 1

    store = RunCache(bound_cache.root)
    assert sorted(os.listdir(store.root)) == [f"{key}.json"]
    canonical = json.dumps(result_to_json(store.get(key)), sort_keys=True)
    assert hashlib.sha256(
        canonical.encode("ascii")).hexdigest() == digests.pop()


class TestStoreWrites:
    """A store write that fails is reported, never swallowed."""

    def test_unwritable_store_warns_and_keeps_the_result(
            self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = str(blocker / "store")
        runner.clear_memo()
        try:
            with runner.executing(cache_dir=store):
                first, source = runner.run_spec_ex(SPEC)
                assert source == "computed"
                again, source = runner.run_spec_ex(SPEC)
                assert (again, source) == (first, "memory")
                runner.clear_memo()
                runner.run_spec_ex(SPEC)   # fails to store again
        finally:
            runner.clear_memo()
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1, warnings
        assert store in warnings[0]

    def test_other_store_failures_raise(self, bound_cache, monkeypatch):
        def broken_codec(result):
            raise TypeError("unserialisable result")

        monkeypatch.setattr(cache, "result_to_json", broken_codec)
        with pytest.raises(TypeError, match="unserialisable"):
            runner.run_spec_ex(SPEC)
