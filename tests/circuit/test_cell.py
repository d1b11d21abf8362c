"""Unit tests for the DRAM cell electrical model."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.cell import (
    CellParameters,
    cell_voltage_after,
    charge_sharing_voltage,
)

P = CellParameters()


class TestLeakage:
    def test_fresh_cell_at_vdd(self):
        assert cell_voltage_after(0.0) == pytest.approx(P.vdd)

    def test_decay_is_monotone(self):
        ages = [0.0, 1.0, 8.0, 64.0, 256.0]
        voltages = [cell_voltage_after(a) for a in ages]
        assert voltages == sorted(voltages, reverse=True)

    def test_64ms_cell_still_senses(self):
        """A worst-case cell must stay above Vdd/2 at the refresh
        deadline, or the stored bit would flip."""
        assert cell_voltage_after(64.0) > P.precharge_voltage

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            cell_voltage_after(-1.0)

    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.1, max_value=500.0))
    def test_decay_property(self, age, delta):
        assert cell_voltage_after(age + delta) <= cell_voltage_after(age)


class TestChargeSharing:
    def test_full_cell_raises_bitline(self):
        v = charge_sharing_voltage(P.vdd)
        assert v > P.precharge_voltage

    def test_discharged_cell_lowers_bitline(self):
        v = charge_sharing_voltage(0.0)
        assert v < P.precharge_voltage

    def test_half_charged_cell_is_neutral(self):
        v = charge_sharing_voltage(P.precharge_voltage)
        assert v == pytest.approx(P.precharge_voltage)

    def test_deviation_magnitude(self):
        """delta = (Vcell - Vdd/2) * Cc/(Cb+Cc), the capacitive divider."""
        cc, cb = P.cell_capacitance_f, P.bitline_capacitance_f
        expected = (P.vdd - P.precharge_voltage) * cc / (cb + cc)
        delta = charge_sharing_voltage(P.vdd) - P.precharge_voltage
        assert delta == pytest.approx(expected)

    def test_deviation_monotone_in_charge(self):
        deviations = [charge_sharing_voltage(cell_voltage_after(a))
                      - P.precharge_voltage for a in (0.0, 8.0, 64.0)]
        assert deviations == sorted(deviations, reverse=True)


class TestParameters:
    def test_ready_and_restore_levels(self):
        assert P.ready_voltage == pytest.approx(0.75 * P.vdd)
        assert P.restore_voltage < P.vdd
