"""Unit tests for configuration validation and paper defaults."""

from dataclasses import replace

import pytest

from repro.config import (
    BANKS_PER_RANK,
    DEFAULT_CPU_FREQ_GHZ,
    ISSUE_WIDTH,
    LINE_BYTES,
    MSHRS_PER_CORE,
    ROW_BUFFER_BYTES,
    WINDOW_SIZE,
    CacheConfig,
    ChargeCacheConfig,
    ControllerConfig,
    DRAMConfig,
    ProcessorConfig,
    SimulationConfig,
    eight_core_config,
    single_core_config,
)
from repro.dram.standards import derated_reduction_cycles
from repro.dram.timing import DDR3_1600


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
        assert (DEFAULT_CPU_FREQ_GHZ, ISSUE_WIDTH, MSHRS_PER_CORE,
                WINDOW_SIZE) == (4.0, 3, 8, 128)

    def test_llc_row(self):
        c = CacheConfig()
        assert c.size_bytes == 4 * 1024 * 1024
        assert c.associativity == 16
        assert LINE_BYTES == 64
        assert c.num_sets == 4096

    def test_dram_row(self):
        d = DRAMConfig()
        assert BANKS_PER_RANK == 8
        assert d.rows_per_bank == 64 * 1024
        assert ROW_BUFFER_BYTES == 8 * 1024
        assert ROW_BUFFER_BYTES // LINE_BYTES == 128  # columns per row

    def test_chargecache_row(self):
        cc = ChargeCacheConfig()
        assert cc.entries == 128
        assert cc.associativity == 2
        assert cc.caching_duration_ms == 1.0
        # Table 2's 1 ms derating on the run's standard: 4/8 on DDR3.
        assert derated_reduction_cycles(
            DDR3_1600, cc.caching_duration_ms) == (4, 8)

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

    def test_bad_cache(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000).validate()

    @pytest.mark.parametrize("associativity", [0, -1])
    def test_associativity_below_one_rejected(self, associativity):
        # Unchecked, 0 divides by zero in the divisibility check and -1
        # passes it, then fails mid-run on an empty LRU list.
        with pytest.raises(ValueError, match="associativity"):
            CacheConfig(associativity=associativity).validate()

    def test_scheduler_is_not_a_field(self):
        # Table 1 fixes FR-FCFS: the controller builds it, no knob names it.
        with pytest.raises(TypeError, match="scheduler"):
            ControllerConfig(scheduler="fcfs")

    @pytest.mark.parametrize("field, value", [
        ("channels", 3),
        ("ranks_per_channel", 3),
        ("rows_per_bank", 3000),
    ])
    def test_dram_geometry_must_be_a_power_of_two(self, field, value):
        # The address codec splits a line address into bit fields, so a
        # geometry that is not a power of two has no mapping.
        with pytest.raises(ValueError, match=f"{field} must be a power "
                                             f"of two, got {value}"):
            DRAMConfig(**{field: value}).validate()

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
    def test_replace_mechanism_copy(self):
        base = single_core_config("none")
        cc = replace(base, mechanism="chargecache")
        cc.validate()
        assert base.mechanism == "none"
        assert cc.mechanism == "chargecache"
        assert cc.dram == base.dram

    def test_overrides_via_kwargs(self):
        cfg = single_core_config(instruction_limit=123,
                                 warmup_cpu_cycles=9)
        assert cfg.instruction_limit == 123
        assert cfg.warmup_cpu_cycles == 9
