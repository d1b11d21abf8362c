"""DRAM cell electrical model.

A cell is a capacitor behind an access transistor on a shared bitline
(paper Figure 1b).  Two behaviours matter for ChargeCache:

* **Leakage**: after a precharge the cell voltage decays exponentially
  toward ground.  The retention time constant is calibrated so that a
  worst-case cell still senses correctly at the 64 ms refresh deadline
  (with the margin the paper's Figure 6 shows: a 64 ms-old cell reaches
  the ready-to-access level in 14.5 ns vs 10 ns when fully charged).
* **Charge sharing**: when the wordline rises, cell and bitline
  capacitances equalise; the resulting bitline deviation from Vdd/2
  seeds sense amplification and is larger for a more charged cell.

Constants follow 55 nm DDR3-class parts (the paper's SPICE setup [77]):
~24 fF cell, ~85 fF bitline, Vdd = 1.5 V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CellParameters:
    """Electrical constants of the cell/bitline pair."""

    vdd: float = 1.5                   # volts
    cell_capacitance_f: float = 24e-15
    bitline_capacitance_f: float = 85e-15
    #: Leakage time constant (ms); calibrated so a 64 ms-old cell
    #: reproduces Figure 6's 14.5 ns ready time (see tests).
    retention_tau_ms: float = 130.0
    #: Fraction of Vdd the bitline must reach before a column command
    #: may sample it ("ready-to-access" level in Figure 6).
    ready_fraction: float = 0.75
    #: Fraction of Vdd at which the cell counts as fully restored
    #: (tRAS end point).
    restore_fraction: float = 0.975

    @property
    def precharge_voltage(self) -> float:
        return self.vdd / 2.0

    @property
    def ready_voltage(self) -> float:
        return self.vdd * self.ready_fraction

    @property
    def restore_voltage(self) -> float:
        return self.vdd * self.restore_fraction


def cell_voltage_after(age_ms: float,
                       params: CellParameters = CellParameters()) -> float:
    """Cell voltage ``age_ms`` after it was last fully charged.

    Exponential decay toward ground; a freshly restored/refreshed cell
    sits at Vdd.
    """
    if age_ms < 0:
        raise ValueError("age must be non-negative")
    return params.vdd * math.exp(-age_ms / params.retention_tau_ms)


def charge_sharing_voltage(cell_voltage: float,
                           params: CellParameters = CellParameters()
                           ) -> float:
    """Bitline (= cell) voltage right after charge sharing.

    Capacitive divider between the precharged bitline (Vdd/2) and the
    cell.  This is state 2 of the paper's Figure 2 (voltage
    Vdd/2 + delta).
    """
    cc = params.cell_capacitance_f
    cb = params.bitline_capacitance_f
    return (cb * params.precharge_voltage + cc * cell_voltage) / (cb + cc)
