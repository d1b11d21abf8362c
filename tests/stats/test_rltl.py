"""Unit tests for the RLTL profiler."""

import pytest

from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import DDR3_1600
from repro.stats.rltl import RLTLProbe


@pytest.fixture
def probe():
    return RLTLProbe(DDR3_1600)


class TestDefinition:
    def test_cold_activation_not_rltl(self, probe):
        probe.on_activate(0, 0, 0, row=5, cycle=100)
        assert probe.activations == 1
        assert probe.rltl(32.0) == 0.0

    def test_activation_after_precharge_counts(self, probe):
        probe.on_precharge(0, 0, 0, row=5, cycle=100)
        probe.on_activate(0, 0, 0, row=5, cycle=200)
        assert probe.rltl(0.125) == 1.0

    def test_gap_binned_into_all_covering_intervals(self, probe):
        gap_cycles = DDR3_1600.ms_to_cycles(0.2)  # between 0.125 and 0.25
        probe.on_precharge(0, 0, 0, 5, cycle=0)
        probe.on_activate(0, 0, 0, 5, cycle=gap_cycles)
        assert probe.rltl(0.125) == 0.0
        assert probe.rltl(0.25) == 1.0
        assert probe.rltl(32.0) == 1.0

    def test_different_rows_tracked_separately(self, probe):
        probe.on_precharge(0, 0, 0, 5, cycle=0)
        probe.on_activate(0, 0, 0, 6, cycle=10)
        assert probe.rltl(32.0) == 0.0

    def test_interval_series(self, probe):
        probe.on_precharge(0, 0, 0, 5, 0)
        probe.on_activate(0, 0, 0, 5, 10)
        series = [(ms, probe.rltl(ms)) for ms in probe.intervals_ms]
        assert [ms for ms, _ in series] == sorted(probe.intervals_ms)
        assert all(frac == 1.0 for _, frac in series)

    def test_unknown_interval_rejected(self, probe):
        with pytest.raises(KeyError):
            probe.rltl(7.0)


class TestRefreshFraction:
    def test_refresh_ages_counted(self):
        refresh = RefreshScheduler(DDR3_1600, 1, 64 * 1024)
        probe = RLTLProbe(DDR3_1600, refresh_schedulers={0: refresh})
        refresh.on_refresh_issued(0, 1000)  # group 0 (rows 0-7)
        probe.on_activate(0, 0, 0, row=0, cycle=2000)
        assert probe.refresh_fraction(8.0) == 1.0

    def test_old_refresh_not_counted(self):
        refresh = RefreshScheduler(DDR3_1600, 1, 64 * 1024)
        probe = RLTLProbe(DDR3_1600, refresh_schedulers={0: refresh})
        old_row = max(range(0, 1024, 8),
                      key=lambda r: refresh.row_refresh_age_cycles(0, r, 0))
        probe.on_activate(0, 0, 0, old_row, cycle=0)
        assert probe.refresh_fraction(8.0) == 0.0


class TestTimeScale:
    def test_scaled_intervals_shrink(self):
        plain = RLTLProbe(DDR3_1600)
        scaled = RLTLProbe(DDR3_1600, time_scale=64.0)
        gap = DDR3_1600.ms_to_cycles(0.125)  # exactly 0.125 ms
        for probe in (plain, scaled):
            probe.on_precharge(0, 0, 0, 5, 0)
            probe.on_activate(0, 0, 0, 5, gap)
        assert plain.rltl(0.125) == 1.0
        assert scaled.rltl(0.125) == 0.0  # 0.125/64 ms edge

    def test_refresh_intervals_never_scaled(self):
        refresh = RefreshScheduler(DDR3_1600, 1, 64 * 1024)
        probe = RLTLProbe(DDR3_1600, refresh_schedulers={0: refresh},
                          time_scale=64.0)
        refresh.on_refresh_issued(0, 0)
        gap = DDR3_1600.ms_to_cycles(4.0)  # 4 ms later (within 8 ms)
        probe.on_activate(0, 0, 0, row=0, cycle=gap)
        assert probe.refresh_fraction(8.0) == 1.0

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            RLTLProbe(DDR3_1600, time_scale=0.0)


class TestBookkeeping:
    def test_reset_keeps_precharge_history(self, probe):
        probe.on_precharge(0, 0, 0, 5, 0)
        probe.reset()
        probe.on_activate(0, 0, 0, 5, 10)
        assert probe.activations == 1
        assert probe.rltl(0.125) == 1.0
