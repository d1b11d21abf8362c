"""Tests for the sense-amplifier transient model (paper Figure 6)."""

import pytest

from repro.circuit.cell import CellParameters
from repro.circuit.sense_amp import SenseAmpModel, SenseAmpParameters
from repro.circuit.spice import (
    WORST_CASE_AGE_MS,
    bitline_transient,
    derive_timing_table,
    find_latency_pair,
    spec_margins,
)


class TestFigure6Anchors:
    """Calibration against the paper's SPICE numbers."""

    def test_fully_charged_ready_time(self):
        ready, _ = find_latency_pair(0.0)
        assert ready == pytest.approx(10.0, abs=0.7)

    def test_worst_case_ready_time(self):
        ready, _ = find_latency_pair(WORST_CASE_AGE_MS)
        assert ready == pytest.approx(14.5, abs=0.7)

    def test_trcd_headroom(self):
        full, _ = find_latency_pair(0.0)
        worst, _ = find_latency_pair(WORST_CASE_AGE_MS)
        assert worst - full == pytest.approx(4.5, abs=0.8)

    def test_tras_headroom(self):
        _, full = find_latency_pair(0.0)
        _, worst = find_latency_pair(WORST_CASE_AGE_MS)
        assert worst - full == pytest.approx(9.6, abs=1.2)


class TestMonotonicity:
    def test_older_cells_are_slower(self):
        readies = [find_latency_pair(age)[0]
                   for age in (0.0, 1.0, 4.0, 16.0, 64.0)]
        assert readies == sorted(readies)

    def test_restore_also_monotone(self):
        restores = [find_latency_pair(age)[1]
                    for age in (0.0, 1.0, 4.0, 16.0, 64.0)]
        assert restores == sorted(restores)

    def test_restore_after_ready(self):
        for age in (0.0, 64.0):
            ready, restore = find_latency_pair(age)
            assert restore > ready


class TestWaveforms:
    def test_bitline_rises_to_vdd(self):
        result = bitline_transient(0.0)
        assert result.bitline_v[0] == pytest.approx(0.75)  # Vdd/2
        assert result.bitline_v[-1] > 1.4

    def test_cell_restored(self):
        result = bitline_transient(64.0, t_end_ns=60.0)
        assert result.cell_v[-1] >= 0.97 * 1.5

    def test_waveform_monotone_after_offset(self):
        result = bitline_transient(0.0)
        tail = result.bitline_v[2:]
        assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))


class TestDerivedTable:
    def test_margins_reproduce_baseline(self):
        margin_rcd, margin_ras = spec_margins()
        worst = find_latency_pair(WORST_CASE_AGE_MS)
        assert worst[0] + margin_rcd == pytest.approx(13.75)
        assert worst[1] + margin_ras == pytest.approx(35.0)

    def test_table_close_to_paper(self):
        """Model-derived Table 2 within ~4 ns of the published values."""
        from repro.circuit.latency_tables import DURATION_TABLE_NS
        table = derive_timing_table()
        for duration, (paper_trcd, paper_tras) in DURATION_TABLE_NS.items():
            model_trcd, model_tras = table[duration]
            assert model_trcd == pytest.approx(paper_trcd, abs=2.0)
            assert model_tras == pytest.approx(paper_tras, abs=4.0)

    def test_table_monotone_in_duration(self):
        table = derive_timing_table()
        durations = sorted(table)
        trcds = [table[d][0] for d in durations]
        trass = [table[d][1] for d in durations]
        assert trcds == sorted(trcds)
        assert trass == sorted(trass)

    def test_table_never_exceeds_baseline(self):
        table = derive_timing_table(durations_ms=(1.0, 64.0, 512.0))
        for trcd, tras in table.values():
            assert trcd <= 13.75
            assert tras <= 35.0


class TestCustomModels:
    def test_weaker_retention_slows_sensing(self):
        leaky = SenseAmpModel(CellParameters(retention_tau_ms=50.0),
                              SenseAmpParameters())
        normal = SenseAmpModel()
        r_leaky = leaky.simulate(32.0)
        r_normal = normal.simulate(32.0)
        assert r_leaky.ready_time_ns > r_normal.ready_time_ns

    def test_nonconvergent_model_raises(self):
        broken = SenseAmpModel(CellParameters(),
                               SenseAmpParameters(tau_sa_ns=500.0))  # far too slow
        with pytest.raises(RuntimeError):
            find_latency_pair(64.0, model=broken)
