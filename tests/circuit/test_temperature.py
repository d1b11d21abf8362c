"""Tests for the temperature model (paper Section 7.1)."""

from dataclasses import replace

import pytest

from repro.circuit.cell import CellParameters, cell_voltage_after
from repro.circuit.temperature import (
    WORST_CASE_TEMPERATURE_C,
    cell_model_at,
    leakage_factor_at,
    retention_tau_at,
)


def chargecache_margin_at(temperature_c, caching_duration_ms=1.0,
                          base=CellParameters()):
    """Oracle: voltage margin of a ChargeCache hit vs the validated
    worst case.

    The reduced timings are validated for a cell that is
    ``caching_duration_ms`` old at the worst-case temperature.  At any
    temperature at or below that, a cached row holds at least as much
    charge, so the margin (in volts) is non-negative - the paper's
    Section 7.1 temperature-independence claim.
    """
    worst_case = cell_voltage_after(caching_duration_ms, base)
    cell = replace(base, retention_tau_ms=retention_tau_at(temperature_c,
                                                           base))
    return cell_voltage_after(caching_duration_ms, cell) - worst_case


class TestLeakageScaling:
    def test_worst_case_is_unity(self):
        assert leakage_factor_at(85.0) == pytest.approx(1.0)

    def test_doubles_every_10c(self):
        assert leakage_factor_at(95.0) == pytest.approx(2.0)
        assert leakage_factor_at(75.0) == pytest.approx(0.5)
        assert leakage_factor_at(65.0) == pytest.approx(0.25)

    def test_retention_tau_scales_inversely(self):
        base = CellParameters()
        assert retention_tau_at(85.0) == pytest.approx(
            base.retention_tau_ms)
        assert retention_tau_at(75.0) == pytest.approx(
            2 * base.retention_tau_ms)


class TestTemperatureIndependence:
    """Paper Section 7.1: ChargeCache's reduced timings are validated
    at the worst-case temperature, so they hold below it."""

    def test_margin_non_negative_at_or_below_worst_case(self):
        for temp in (25.0, 45.0, 65.0, 85.0):
            assert chargecache_margin_at(temp) >= -1e-12

    def test_margin_grows_as_device_cools(self):
        margins = [chargecache_margin_at(t) for t in (85.0, 65.0, 45.0)]
        assert margins == sorted(margins)

    def test_hot_3d_stacked_device_loses_margin(self):
        """Above 85 C (HMC/HBM/WideIO stacking) the margin goes
        negative - ChargeCache would need re-validated timings there,
        matching the paper's discussion of 3D-stacked parts."""
        assert chargecache_margin_at(105.0) < 0

    def test_cool_device_senses_faster(self):
        cool = cell_model_at(45.0).simulate(32.0)
        hot = cell_model_at(WORST_CASE_TEMPERATURE_C).simulate(32.0)
        assert cool.ready_time_ns < hot.ready_time_ns

    def test_worst_case_model_matches_default(self):
        default = cell_model_at(WORST_CASE_TEMPERATURE_C)
        assert default.cell.retention_tau_ms == pytest.approx(
            CellParameters().retention_tau_ms)
