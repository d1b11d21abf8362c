"""Tests for the unified aggregation layer (harness.aggregate)."""

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

    def test_filters_and_standard_column(self, tmp_path):
        pool.execute_sweep(SWEEP)
        frame = aggregate.store_frame(
            run_cache.RunCache(str(tmp_path / "cache")),
            mechanism="chargecache", standard="DDR3-1600")
        assert len(frame) == 2
        assert {row["mechanism"] for row in frame} == {"chargecache"}
        # Spec axes come from each envelope's spec payload.
        assert {row["kind"] for row in frame} == {"single"}
        assert len(aggregate.store_frame(str(tmp_path / "cache"),
                                         standard="DDR4-2400")) == 0

    @pytest.mark.parametrize("spec", [
        RunSpec(kind="single", name="mcf"),
        RunSpec(kind="alone", name="mcf"),
        RunSpec(kind="eight", name="w1"),
        RunSpec(kind="scenario", name="mcf", scenario="ddr4-2400-c1"),
        RunSpec(kind="scenario", name="w1", scenario="gddr5-4000-c8")],
        ids=lambda spec: spec.label())
    def test_standard_is_the_platform_standard(self, spec):
        assert aggregate.spec_standard(spec) == \
            runner._spec_config(spec).dram.standard

    def test_corrupt_envelopes_skipped(self, tmp_path):
        pool.execute_sweep(SWEEP[:1])
        disk = runner.active_disk_cache()
        key = run_cache.cache_key(SWEEP[0])
        with open(disk.path_for(key), "w", encoding="ascii") as fh:
            fh.write("{}")
        assert len(aggregate.store_frame(str(tmp_path / "cache"))) == 0
