"""Unit tests for configuration validation and paper defaults."""

import pytest

from repro.config import (
    CacheConfig,
    ChargeCacheConfig,
    ControllerConfig,
    DRAMConfig,
    ProcessorConfig,
    SimulationConfig,
    eight_core_config,
    single_core_config,
)


class TestPaperDefaults:
    def test_single_core_matches_table1(self):
        cfg = single_core_config()
        assert cfg.processor.num_cores == 1
        assert cfg.dram.channels == 1
        assert cfg.controller.row_policy == "open"

    def test_eight_core_matches_table1(self):
        cfg = eight_core_config()
        assert cfg.processor.num_cores == 8
        assert cfg.dram.channels == 2
        assert cfg.controller.row_policy == "closed"

    def test_processor_row(self):
        p = ProcessorConfig()
        assert (p.freq_ghz, p.issue_width, p.mshrs_per_core,
                p.window_size) == (4.0, 3, 8, 128)

    def test_llc_row(self):
        c = CacheConfig()
        assert c.size_bytes == 4 * 1024 * 1024
        assert c.associativity == 16
        assert c.line_bytes == 64
        assert c.num_sets == 4096

    def test_dram_row(self):
        d = DRAMConfig()
        assert d.banks_per_rank == 8
        assert d.rows_per_bank == 64 * 1024
        assert d.row_buffer_bytes == 8 * 1024
        assert d.columns_per_row == 128

    def test_chargecache_row(self):
        cc = ChargeCacheConfig()
        assert cc.entries == 128
        assert cc.associativity == 2
        assert cc.caching_duration_ms == 1.0
        assert (cc.trcd_reduction_cycles, cc.tras_reduction_cycles) == (4, 8)

    def test_clock_ratio(self):
        assert SimulationConfig().cpu_cycles_per_mem_cycle == 5


class TestValidation:
    def test_all_mechanisms_accepted(self):
        for mech in ("none", "chargecache", "nuat", "chargecache+nuat",
                     "lldram", "aldram", "chargecache+aldram"):
            single_core_config(mech).validate()

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            single_core_config("turbo")

    def test_bad_processor(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_cores=0).validate()
        with pytest.raises(ValueError):
            ProcessorConfig(window_size=0).validate()

    def test_bad_cache(self):
        with pytest.raises(ValueError):
            CacheConfig(line_bytes=48).validate()
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000).validate()

    def test_bad_controller(self):
        with pytest.raises(ValueError):
            ControllerConfig(scheduler="magic").validate()
        with pytest.raises(ValueError):
            ControllerConfig(write_low_watermark=0.9,
                             write_high_watermark=0.5).validate()

    def test_bad_chargecache(self):
        with pytest.raises(ValueError):
            ChargeCacheConfig(entries=100, associativity=3).validate()
        with pytest.raises(ValueError):
            ChargeCacheConfig(caching_duration_ms=0).validate()
        with pytest.raises(ValueError):
            ChargeCacheConfig(sharing="global").validate()
        with pytest.raises(ValueError):
            ChargeCacheConfig(time_scale=0).validate()

    def test_bad_row_policy(self):
        with pytest.raises(ValueError):
            ControllerConfig(row_policy="adaptive").validate()


class TestMutation:
    def test_with_mechanism_copy(self):
        base = single_core_config("none")
        cc = base.with_mechanism("chargecache")
        assert base.mechanism == "none"
        assert cc.mechanism == "chargecache"
        assert cc.dram == base.dram

    def test_overrides_via_kwargs(self):
        cfg = single_core_config(instruction_limit=123, seed=9)
        assert cfg.instruction_limit == 123
        assert cfg.seed == 9
