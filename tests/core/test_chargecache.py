"""Unit tests for the ChargeCache mechanism."""

import pytest

from repro.config import ChargeCacheConfig
from repro.core.chargecache import ChargeCache, row_key
from repro.dram.timing import DDR3_1600


def make_cc(num_cores=1, **kwargs) -> ChargeCache:
    return ChargeCache(DDR3_1600, ChargeCacheConfig(**kwargs), num_cores)


class TestRowKey:
    def test_distinct_rows_distinct_keys(self):
        keys = {row_key(r, b, row)
                for r in range(2) for b in range(8) for row in range(16)}
        assert len(keys) == 2 * 8 * 16

    def test_row_in_low_bits(self):
        assert row_key(0, 0, 5) & 0xFFFF == 5


class TestInsertLookup:
    def test_miss_without_prior_precharge(self):
        cc = make_cc()
        assert cc.on_activate(0, 0, 100, 0, 10) is None
        assert cc.lookups == 1
        assert cc.hits == 0

    def test_hit_after_precharge(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 100, 0, 10)
        timings = cc.on_activate(0, 0, 100, 0, 20)
        assert timings is not None
        assert cc.hits == 1

    def test_hit_timings_are_paper_reduction(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 100, 0, 10)
        timings = cc.on_activate(0, 0, 100, 0, 20)
        assert timings.trcd == DDR3_1600.tRCD - 4
        assert timings.tras == DDR3_1600.tRAS - 8

    def test_different_row_misses(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 100, 0, 10)
        assert cc.on_activate(0, 0, 101, 0, 20) is None

    def test_different_bank_misses(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 100, 0, 10)
        assert cc.on_activate(0, 1, 100, 0, 20) is None

    def test_counts_lookups_and_hits(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 1, 0, 0)
        cc.on_activate(0, 0, 1, 0, 1)
        cc.on_activate(0, 0, 2, 0, 2)
        assert (cc.hits, cc.lookups) == (1, 2)


class TestInvalidation:
    def test_entry_expires_after_duration(self):
        cc = make_cc(caching_duration_ms=1.0)
        duration = cc.duration_cycles
        cc.on_precharge(0, 0, 100, 0, 0)
        assert cc.on_activate(0, 0, 100, 0, duration + duration // 128 + 2) \
            is None

    def test_time_scale_shrinks_duration(self):
        plain = make_cc(caching_duration_ms=1.0)
        scaled = make_cc(caching_duration_ms=1.0, time_scale=64.0)
        assert scaled.duration_cycles * 64 == pytest.approx(
            plain.duration_cycles, rel=0.01)

    def test_hooks_catch_the_sweep_up_once(self):
        """The first hook at or past an IIC wrap runs the sweep up to
        its cycle; a second hook at the same cycle finds nothing due."""
        cc = make_cc()
        cc.on_precharge(0, 0, 100, 0, 0)
        invalidator = cc.invalidators[0]
        cycle = 3 * invalidator.interval
        for _ in range(2):
            # Row 100 sits in set 36 (entries 72-73): not yet swept.
            assert cc.on_activate(0, 0, 100, 0, cycle) is not None
            assert invalidator.entry_counter == 3
            assert invalidator.next_wrap_cycle() == \
                cycle + invalidator.interval


class TestCapacity:
    def test_eviction_loses_oldest(self):
        cc = make_cc(entries=4, associativity=2)
        # Five distinct rows mapping across 2 sets: overflow evicts.
        for row in range(5):
            cc.on_precharge(0, 0, row, 0, row)
        hits = sum(cc.on_activate(0, 0, row, 0, 10) is not None
                   for row in range(5))
        assert hits == 4  # one victim fell out


class TestSharing:
    def test_per_core_tables_are_private(self):
        cc = make_cc(num_cores=2, sharing="per-core")
        cc.on_precharge(0, 0, 100, core_id=0, cycle=0)
        assert cc.on_activate(0, 0, 100, core_id=1, cycle=5) is None
        assert cc.on_activate(0, 0, 100, core_id=0, cycle=6) is not None

    def test_shared_table_is_visible_to_all(self):
        cc = make_cc(num_cores=2, sharing="shared")
        cc.on_precharge(0, 0, 100, core_id=0, cycle=0)
        assert cc.on_activate(0, 0, 100, core_id=1, cycle=5) is not None

    def test_negative_core_id_routes_to_table_zero(self):
        cc = make_cc(num_cores=2, sharing="per-core")
        cc.on_precharge(0, 0, 7, core_id=-1, cycle=0)
        assert cc.on_activate(0, 0, 7, core_id=0, cycle=1) is not None


class TestUnbounded:
    def test_unbounded_never_capacity_evicts(self):
        cc = make_cc(unbounded=True, caching_duration_ms=1.0)
        for row in range(1000):
            cc.on_precharge(0, 0, row, 0, row)
        hits = sum(cc.on_activate(0, 0, row, 0, 1001) is not None
                   for row in range(1000))
        assert hits == 1000

    def test_unbounded_still_expires(self):
        cc = make_cc(unbounded=True, caching_duration_ms=1.0)
        cc.on_precharge(0, 0, 1, 0, 0)
        late = cc.duration_cycles + 1
        assert cc.on_activate(0, 0, 1, 0, late) is None


class TestStats:
    def test_reset_stats(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 1, 0, 0)
        cc.on_activate(0, 0, 1, 0, 1)
        cc.reset_stats()
        assert cc.lookups == 0
        assert cc.hits == 0

    def test_valid_entries(self):
        cc = make_cc()
        cc.on_precharge(0, 0, 1, 0, 0)
        cc.on_precharge(0, 0, 2, 0, 1)
        assert sum(len(table) for table in cc.tables) == 2
