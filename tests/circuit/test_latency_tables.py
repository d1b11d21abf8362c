"""Tests for the caching-duration timing tables (paper Table 2)."""

import math

import pytest

from repro.circuit.latency_tables import (
    BASELINE_TIMINGS_NS,
    DURATION_REDUCTIONS_CYCLES,
    DURATION_TABLE_NS,
    nuat_bin_reductions,
    reductions_for_duration_ms,
)
from repro.dram.timing import DDR3_1600


def timings_ns_for_duration_ms(duration_ms):
    """Oracle: (tRCD, tRAS) in ns for a caching duration, by the same
    conservative lookup as the cycle table - a duration between rows
    takes the next longer (slower) row, beyond the table the baseline."""
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    for edge in sorted(DURATION_TABLE_NS):
        if duration_ms <= edge:
            return DURATION_TABLE_NS[edge]
    return BASELINE_TIMINGS_NS


class TestPublishedTable:
    def test_baseline_matches_ddr3(self):
        trcd_ns, tras_ns = BASELINE_TIMINGS_NS
        assert math.ceil(trcd_ns / DDR3_1600.tCK_ns) == DDR3_1600.tRCD
        assert math.ceil(tras_ns / DDR3_1600.tCK_ns) == DDR3_1600.tRAS

    def test_exact_paper_rows(self):
        assert DURATION_TABLE_NS[1.0] == (8.0, 22.0)
        assert DURATION_TABLE_NS[4.0] == (9.0, 24.0)
        assert DURATION_TABLE_NS[16.0] == (11.0, 28.0)

    def test_headline_reduction_is_4_8_cycles(self):
        assert reductions_for_duration_ms(1.0) == (4, 8)


class TestConservativeLookup:
    def test_between_rows_rounds_up_to_slower(self):
        assert timings_ns_for_duration_ms(2.0) == DURATION_TABLE_NS[4.0]
        assert reductions_for_duration_ms(2.0) == \
            DURATION_REDUCTIONS_CYCLES[4.0]

    def test_beyond_table_is_baseline(self):
        assert timings_ns_for_duration_ms(64.0) == BASELINE_TIMINGS_NS
        assert reductions_for_duration_ms(64.0) == (0, 0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            timings_ns_for_duration_ms(0.0)
        with pytest.raises(ValueError):
            reductions_for_duration_ms(-1.0)

    def test_reductions_monotone_in_duration(self):
        durations = sorted(DURATION_REDUCTIONS_CYCLES)
        trcds = [DURATION_REDUCTIONS_CYCLES[d][0] for d in durations]
        trass = [DURATION_REDUCTIONS_CYCLES[d][1] for d in durations]
        assert trcds == sorted(trcds, reverse=True)
        assert trass == sorted(trass, reverse=True)


class TestNUATBins:
    def test_default_5pb_bins(self):
        table = nuat_bin_reductions((6.0, 16.0, 32.0, 48.0, 64.0))
        assert len(table) == 5
        assert table[-1] == (64.0, (0, 0))

    def test_bins_monotone(self):
        table = nuat_bin_reductions((6.0, 16.0, 32.0, 48.0, 64.0))
        reductions = [red for _, red in table]
        for earlier, later in zip(reductions, reductions[1:]):
            assert earlier[0] >= later[0]
            assert earlier[1] >= later[1]

    def test_nuat_never_beats_chargecache_1ms(self):
        """A refresh-based hit can never assume more charge than a
        1 ms-old ChargeCache row."""
        cc = reductions_for_duration_ms(1.0)
        for _, red in nuat_bin_reductions((6.0, 16.0, 32.0, 48.0, 64.0)):
            assert red[0] <= cc[0]
            assert red[1] <= cc[1]

    def test_custom_edges_fall_back_to_duration_rule(self):
        table = nuat_bin_reductions((4.0,))
        assert table[0] == (4.0, DURATION_REDUCTIONS_CYCLES[4.0])
