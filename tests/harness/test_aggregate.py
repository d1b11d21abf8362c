"""Tests for the unified aggregation layer (harness.aggregate)."""

import builtins

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
    def test_columns_first_seen_order(self):
        frame = Frame([{"a": 1, "b": 2}, {"b": 3, "c": 4}])
        assert frame.columns == ["a", "b", "c"]
        assert len(frame) == 2

    def test_where_equals(self):
        frame = Frame(ROWS)
        sub = frame.where(mech="cc")
        assert [row["name"] for row in sub] == ["a", "b"]
        assert sub.columns == frame.columns

    def test_where_predicate(self):
        frame = Frame(ROWS)
        sub = frame.where(lambda row: row["ipc"] > 2.0, mech="cc")
        assert [row["name"] for row in sub] == ["b"]

    def test_where_absent_column_matches_nothing(self):
        assert len(Frame(ROWS).where(engine="dense")) == 0

    def test_mean_is_sum_over_len(self):
        assert Frame(ROWS).where(mech="cc").mean("ipc") == 3.5
        assert Frame([]).mean("ipc") == 0.0

    def test_column(self):
        assert Frame(ROWS).where(mech="none").column("ipc") == [1.0, 3.0]

    def test_groupby_mean(self):
        grouped = Frame(ROWS).groupby(["mech"]).mean("ipc")
        assert grouped.to_records() == [
            {"mech": "none", "ipc": 2.0}, {"mech": "cc", "ipc": 3.5}]

    def test_to_records_uses_column_order(self):
        frame = Frame(ROWS, columns=["ipc", "name"])
        assert frame.to_records()[0] == {"ipc": 1.0, "name": "a"}

    def test_to_pandas_gated(self):
        pytest.importorskip("pandas")
        df = Frame(ROWS).to_pandas()
        assert list(df.columns) == ["name", "mech", "ipc"]

    def test_to_pandas_raises_without_pandas(self, monkeypatch):
        real_import = builtins.__import__

        def no_pandas(name, *args, **kwargs):
            if name == "pandas":
                raise ImportError("gated for test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_pandas)
        with pytest.raises(RuntimeError, match="pandas"):
            Frame(ROWS).to_pandas()


class TestStoreFrame:
    def test_from_store_dir(self, tmp_path):
        pool.execute_sweep(SWEEP)
        frame = aggregate.store_frame(str(tmp_path / "cache"))
        assert len(frame) == len(SWEEP)
        assert "key" in frame.columns
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
        assert set(frame.column("mechanism")) == {"chargecache"}
        # Spec axes come from each envelope's spec payload.
        assert set(frame.column("kind")) == {"single"}
        assert len(aggregate.store_frame(str(tmp_path / "cache"),
                                         standard="DDR4-2400")) == 0

    def test_corrupt_envelopes_skipped(self, tmp_path):
        pool.execute_sweep(SWEEP[:1])
        disk = runner.active_disk_cache()
        key = run_cache.cache_key(SWEEP[0])
        with open(disk.path_for(key), "w", encoding="ascii") as fh:
            fh.write("{}")
        assert len(aggregate.store_frame(str(tmp_path / "cache"))) == 0
