"""Tests for the mechanism interface, LL-DRAM and composition."""

import pytest

from repro.config import (
    ChargeCacheConfig,
    NUATConfig,
    SimulationConfig,
)
from repro.core.chargecache import ChargeCache
from repro.core.lldram import LowLatencyDRAM
from repro.core.nuat import NUAT
from repro.core import registry
from repro.core.timing_policy import CombinedMechanism, DefaultTiming
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import DDR3_1600


@pytest.fixture
def refresh():
    return RefreshScheduler(DDR3_1600, 1, 64 * 1024)


def _context(cfg, refresh):
    return registry.MechanismContext(timing=DDR3_1600, num_cores=1,
                                     refresh_scheduler=refresh,
                                     config=cfg)


class TestDefaultTiming:
    def test_always_misses(self):
        mech = DefaultTiming(DDR3_1600)
        for cycle in range(5):
            assert mech.on_activate(0, 0, cycle, 0, cycle) is None
        assert mech.lookups == 5
        assert mech.hit_rate == 0.0


class TestLLDRAM:
    def test_always_hits(self):
        mech = LowLatencyDRAM(DDR3_1600)
        timings = mech.on_activate(0, 0, 123, 0, 0)
        assert (timings.trcd, timings.tras) == (7, 20)
        assert mech.hit_rate == 1.0

    def test_equivalent_to_chargecache_hit(self):
        cc = ChargeCache(DDR3_1600, ChargeCacheConfig(), 1)
        ll = LowLatencyDRAM(DDR3_1600, ChargeCacheConfig())
        cc.on_precharge(0, 0, 9, 0, 0)
        assert cc.on_activate(0, 0, 9, 0, 1) == ll.on_activate(0, 0, 9, 0, 1)


class TestCombined:
    def test_cc_hit_only(self, refresh):
        mech = CombinedMechanism(
            DDR3_1600,
            ChargeCache(DDR3_1600, ChargeCacheConfig(), 1),
            NUAT(DDR3_1600, NUATConfig(), refresh))
        mech.on_precharge(0, 0, 100, 0, 0)
        old_row = max(range(0, 1024, 8),
                      key=lambda r: refresh.row_refresh_age_cycles(0, r, 0))
        if old_row == 100:
            old_row += 8
        mech.on_precharge(0, 0, old_row, 0, 0)
        timings = mech.on_activate(0, 0, old_row, 0, 1)
        assert timings is not None  # CC covers what NUAT cannot

    def test_takes_min_of_both(self, refresh):
        cc = ChargeCache(DDR3_1600, ChargeCacheConfig(), 1)
        nuat = NUAT(DDR3_1600, NUATConfig(), refresh)
        mech = CombinedMechanism(DDR3_1600, cc, nuat)
        refresh.on_refresh_issued(0, 0)  # rows 0-7 freshly refreshed
        mech.on_precharge(0, 0, 0, 0, 10)
        combined = mech.on_activate(0, 0, 0, 0, 20)
        cc_only = cc.hit_timings
        assert combined.trcd <= cc_only.trcd
        assert combined.tras <= cc_only.tras

    def test_miss_when_both_miss(self, refresh):
        mech = CombinedMechanism(
            DDR3_1600,
            ChargeCache(DDR3_1600, ChargeCacheConfig(), 1),
            NUAT(DDR3_1600, NUATConfig(), refresh))
        old_row = max(range(0, 1024, 8),
                      key=lambda r: refresh.row_refresh_age_cycles(0, r, 0))
        assert mech.on_activate(0, 0, old_row, 0, 0) is None

    def test_reset_propagates(self, refresh):
        cc = ChargeCache(DDR3_1600, ChargeCacheConfig(), 1)
        nuat = NUAT(DDR3_1600, NUATConfig(), refresh)
        mech = CombinedMechanism(DDR3_1600, cc, nuat)
        mech.on_activate(0, 0, 0, 0, 0)
        mech.reset_stats()
        assert cc.lookups == 0 and nuat.lookups == 0 and mech.lookups == 0


class TestFactory:
    @pytest.mark.parametrize("name,expected", [
        ("none", DefaultTiming),
        ("chargecache", ChargeCache),
        ("nuat", NUAT),
        ("chargecache+nuat", CombinedMechanism),
        ("lldram", LowLatencyDRAM),
    ])
    def test_build_each_mechanism(self, refresh, name, expected):
        cfg = SimulationConfig(mechanism=name)
        mech = registry.build(name, _context(cfg, refresh))
        assert isinstance(mech, expected)

    def test_unknown_mechanism(self, refresh):
        with pytest.raises(ValueError):
            registry.build("bogus", _context(SimulationConfig(), refresh))
