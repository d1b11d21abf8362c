"""Unit tests for DDR3 timing parameters."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.timing import DDR3_1600, ReducedTimings, TimingParameters


class TestDefaults:
    def test_paper_table1_values(self):
        # Table 1: DDR3-1600, 800 MHz bus, tRCD/tRAS 11/28 cycles.
        assert DDR3_1600.freq_mhz == 800.0
        assert DDR3_1600.tRCD == 11
        assert DDR3_1600.tRAS == 28
        assert DDR3_1600.tRP == 11

    def test_trc_is_tras_plus_trp(self):
        assert DDR3_1600.tRC == DDR3_1600.tRAS + DDR3_1600.tRP

    def test_ns_per_cycle(self):
        assert DDR3_1600.tCK_ns == pytest.approx(1.25)
        assert DDR3_1600.tRCD * DDR3_1600.tCK_ns == pytest.approx(13.75)
        assert DDR3_1600.tRAS * DDR3_1600.tCK_ns == pytest.approx(35.0)

    def test_validate_passes(self):
        DDR3_1600.validate()

    def test_refreshes_per_window(self):
        # 64 ms / 7.8 us = 8192 refreshes for DDR3.
        assert DDR3_1600.refreshes_per_window == 8192

    def test_refresh_window_cycles(self):
        assert DDR3_1600.refresh_window_cycles == \
            int(round(64.0 * 1e6 / 1.25))

    def test_read_latency(self):
        assert DDR3_1600.read_latency == DDR3_1600.tCL + DDR3_1600.tBL


class TestDerivedConstraints:
    def test_write_to_pre(self):
        t = DDR3_1600
        assert t.write_to_pre == t.tCWL + t.tBL + t.tWR

    def test_write_to_read(self):
        t = DDR3_1600
        assert t.write_to_read == t.tCWL + t.tBL + t.tWTR

    def test_read_to_write(self):
        t = DDR3_1600
        assert t.read_to_write == t.tCL + t.tBL + 2 - t.tCWL


class TestConversions:
    def test_ms_to_cycles(self):
        assert DDR3_1600.ms_to_cycles(1.0) == 800_000


class TestReducedTimings:
    def test_default_timings(self):
        t = DDR3_1600.default_timings()
        assert (t.trcd, t.tras) == (11, 28)

    def test_paper_reduction(self):
        # 4/8-cycle reduction at 1 ms caching duration.
        t = DDR3_1600.reduced_by(4, 8)
        assert (t.trcd, t.tras) == (7, 20)

    def test_reduction_floors_at_one(self):
        t = DDR3_1600.reduced_by(100, 100)
        assert (t.trcd, t.tras) == (1, 1)

    def test_negative_reduction_rejected(self):
        with pytest.raises(ValueError):
            DDR3_1600.reduced_by(-1, 0)

    def test_min_with_takes_elementwise_min(self):
        a = ReducedTimings(7, 25)
        b = ReducedTimings(9, 20)
        c = a.min_with(b)
        assert (c.trcd, c.tras) == (7, 20)

    @given(st.integers(1, 30), st.integers(1, 60),
           st.integers(1, 30), st.integers(1, 60))
    def test_min_with_commutative(self, a1, a2, b1, b2):
        a, b = ReducedTimings(a1, a2), ReducedTimings(b1, b2)
        assert a.min_with(b) == b.min_with(a)


class TestValidation:
    def test_faw_less_than_rrd_rejected(self):
        t = TimingParameters(tFAW=2, tRRD=5)
        with pytest.raises(ValueError):
            t.validate()

    def test_refi_less_than_rfc_rejected(self):
        t = TimingParameters(tREFI=100, tRFC=208)
        with pytest.raises(ValueError):
            t.validate()

    def test_zero_constraint_rejected(self):
        t = TimingParameters(tRCD=0)
        with pytest.raises(ValueError):
            t.validate()
