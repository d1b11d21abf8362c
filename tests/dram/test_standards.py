"""Tests for other-standard presets (paper Section 7.2)."""

import pytest

from repro.circuit.latency_tables import DURATION_REDUCTIONS_CYCLES
from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.dram.standards import (
    DDR4_2400,
    GDDR5_4000,
    LPDDR3_1600,
    PRESETS,
    derated_reduction_cycles,
    preset,
    reduction_cycles_for,
)
from repro.workloads.synthetic import stream_trace

from tests.conftest import tiny_config


class TestPresets:
    def test_lookup(self):
        assert preset("DDR4-2400") is DDR4_2400
        with pytest.raises(KeyError):
            preset("RLDRAM-3")  # incompatible by design (Section 7.2)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_validate(self, name):
        preset(name).validate()

    def test_clock_periods(self):
        assert DDR4_2400.tCK_ns == pytest.approx(1 / 1.2)
        assert LPDDR3_1600.tCK_ns == pytest.approx(1.25)
        assert GDDR5_4000.tCK_ns == pytest.approx(0.5)

    def test_trcd_in_nanoseconds_comparable(self):
        """Core timings are similar in ns across standards (same cell
        physics), even though cycle counts differ wildly."""
        for timing in PRESETS.values():
            assert 10.0 <= timing.tRCD * timing.tCK_ns <= 20.0
            assert 25.0 <= timing.tRAS * timing.tCK_ns <= 45.0

    def test_lpddr_refreshes_more_often(self):
        assert LPDDR3_1600.tREFI < PRESETS["DDR3-1600"].tREFI


class TestReductions:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_reductions_positive_and_legal(self, name):
        timing = preset(name)
        trcd_red, tras_red = reduction_cycles_for(timing)
        assert 1 <= timing.tRCD - trcd_red < timing.tRCD
        assert 1 <= timing.tRAS - tras_red < timing.tRAS

    def test_same_physics_different_cycles(self):
        """~5 ns of tRCD headroom is more cycles on a faster bus."""
        ddr3 = preset("DDR3-1600")
        gddr5 = preset("GDDR5-4000")
        red3, _ = reduction_cycles_for(ddr3)
        red5, _ = reduction_cycles_for(gddr5)
        assert red5 > red3

    @pytest.mark.parametrize("duration_ms", sorted(DURATION_REDUCTIONS_CYCLES))
    def test_derating_round_trips_on_ddr3(self, duration_ms):
        """Table 2 is in DDR3-1600 cycles: the ns round trip is exact."""
        assert derated_reduction_cycles(preset("DDR3-1600"), duration_ms) == \
            DURATION_REDUCTIONS_CYCLES[duration_ms]


class TestEndToEnd:
    @pytest.mark.parametrize("name", ("DDR4-2400", "LPDDR3-1600"))
    def test_chargecache_runs_on_other_standards(self, name):
        cfg = tiny_config(mechanism="chargecache", standard=name,
                          instruction_limit=2000)
        org = Organization.from_config(cfg.dram)
        system = System(cfg, [stream_trace(org, 1 << 21, 8.0, seed=1,
                                           num_streams=2)])
        assert system.timing is preset(name)
        result = system.run(max_mem_cycles=600_000)
        assert not result.truncated
        assert result.mechanism_lookups > 0
        assert result.mechanism_hits > 0
