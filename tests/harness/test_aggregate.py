"""Tests for the unified aggregation layer (harness.aggregate)."""

import json

import pytest

from repro.harness import aggregate, pool, runner
from repro.harness import cache as run_cache
from repro.harness.aggregate import Frame
from repro.harness.spec import RunSpec, Scale

TINY = Scale(single_core_instructions=1500, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

SWEEP = [
    RunSpec(kind="single", name=name, mechanism=mech, scale=TINY,
            engine="event")
    for name in ("hmmer", "libquantum")
    for mech in ("none", "chargecache")
]

ROWS = [
    {"name": "a", "mech": "none", "ipc": 1.0},
    {"name": "a", "mech": "cc", "ipc": 2.0},
    {"name": "b", "mech": "none", "ipc": 3.0},
    {"name": "b", "mech": "cc", "ipc": 5.0},
]


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "cache")):
        yield
    runner.clear_memo()


class TestFrameVerbs:
    def test_where_equals(self):
        frame = Frame(ROWS)
        sub = frame.where(mech="cc")
        assert [row["name"] for row in sub] == ["a", "b"]
        assert sub.rows[0] is frame.rows[1]  # rows are shared

    def test_where_predicate(self):
        frame = Frame(ROWS)
        sub = frame.where(lambda row: row["ipc"] > 2.0, mech="cc")
        assert [row["name"] for row in sub] == ["b"]

    def test_where_absent_column_matches_nothing(self):
        assert len(Frame(ROWS).where(engine="dense")) == 0



class TestStoreFrame:
    def test_from_store_dir(self, tmp_path):
        pool.execute_sweep(SWEEP)
        frame = aggregate.store_frame(str(tmp_path / "cache"))
        assert len(frame) == len(SWEEP)
        assert all("key" in row for row in frame)
        cc = frame.where(mechanism="chargecache")
        assert len(cc) == 2
        for row in cc:
            assert row["key"] == run_cache.cache_key(
                RunSpec(kind="single", name=row["name"],
                        mechanism="chargecache", scale=TINY,
                        engine="event"))

    def test_filters(self, tmp_path):
        pool.execute_sweep(SWEEP)
        frame = aggregate.store_frame(
            run_cache.RunCache(str(tmp_path / "cache")),
            mechanism="chargecache", kind="single")
        assert len(frame) == 2
        assert {row["mechanism"] for row in frame} == {"chargecache"}
        # Spec axes come from each envelope's spec payload.
        assert {row["kind"] for row in frame} == {"single"}
        assert len(aggregate.store_frame(str(tmp_path / "cache"),
                                         kind="eight")) == 0

    def test_envelope_with_non_object_scale_skipped(self, tmp_path):
        """A spec whose ``scale`` is not an object is a corrupt
        envelope: the frame drops its row and keeps the others."""
        pool.execute_sweep(SWEEP[:2])
        disk = runner.active_disk_cache()
        path = disk.path_for(run_cache.cache_key(SWEEP[0]))
        with open(path, encoding="ascii") as fh:
            envelope = json.load(fh)
        envelope["spec"]["scale"] = 7
        with open(path, "w", encoding="ascii") as fh:
            json.dump(envelope, fh)
        frame = aggregate.store_frame(str(tmp_path / "cache"))
        assert [row["key"] for row in frame] == \
            [run_cache.cache_key(SWEEP[1])]

    @pytest.mark.parametrize("field, value", [
        ("seed", "abc"), ("engine", 3), ("enable_rltl", "yes"),
        ("single_core_instructions", "x")])
    def test_envelope_with_ill_typed_spec_skipped(self, tmp_path, field,
                                                  value):
        """A spec value no valid spec holds (a string seed, a numeric
        engine, a string flag or budget) names no run: the frame
        drops its row and keeps the others."""
        pool.execute_sweep(SWEEP[:2])
        disk = runner.active_disk_cache()
        path = disk.path_for(run_cache.cache_key(SWEEP[0]))
        with open(path, encoding="ascii") as fh:
            envelope = json.load(fh)
        spec = envelope["spec"]
        (spec["scale"] if field in spec["scale"] else spec)[field] = value
        with open(path, "w", encoding="ascii") as fh:
            json.dump(envelope, fh)
        frame = aggregate.store_frame(str(tmp_path / "cache"))
        assert [row["key"] for row in frame] == \
            [run_cache.cache_key(SWEEP[1])]

    def test_corrupt_envelopes_skipped(self, tmp_path):
        pool.execute_sweep(SWEEP[:1])
        disk = runner.active_disk_cache()
        key = run_cache.cache_key(SWEEP[0])
        with open(disk.path_for(key), "w", encoding="ascii") as fh:
            fh.write("{}")
        assert len(aggregate.store_frame(str(tmp_path / "cache"))) == 0
