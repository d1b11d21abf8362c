"""Temperature dependence of DRAM retention (paper Section 7.1).

Charge leakage roughly doubles for every 10 C increase in temperature
(the paper cites [39, 48, 51, 58, 75]).  The paper argues ChargeCache
is *temperature independent*: its timing reductions are validated at
the worst-case temperature (85 C), so they hold at any lower
temperature - unlike AL-DRAM-style dynamic latency scaling, which
relies on the DRAM being cool.

This module models that relationship so the claim can be checked
quantitatively (see ``tests/circuit/test_temperature.py``, which also
holds the ChargeCache-margin oracle, and AL-DRAM in
:mod:`repro.core.aldram`):

* :func:`retention_tau_at` - leakage time constant vs temperature.
* :func:`cell_model_at` - a :class:`SenseAmpModel` for a device at a
  given temperature.
"""

from __future__ import annotations

from dataclasses import replace

from repro.circuit.cell import CellParameters
from repro.circuit.sense_amp import SenseAmpModel, SenseAmpParameters

#: Temperature at which DRAM timings are specified (worst case).
WORST_CASE_TEMPERATURE_C = 85.0

#: Leakage doubles per this many degrees Celsius.
DOUBLING_INTERVAL_C = 10.0


def leakage_factor_at(temperature_c: float) -> float:
    """Leakage-rate multiplier relative to the worst-case temperature.

    1.0 at 85 C; 0.5 at 75 C; 2.0 at 95 C (3D-stacked parts may exceed
    85 C - the paper's argument for why AL-DRAM-style scaling helps
    less there).
    """
    exponent = (temperature_c - WORST_CASE_TEMPERATURE_C) \
        / DOUBLING_INTERVAL_C
    return 2.0 ** exponent


def retention_tau_at(temperature_c: float,
                     base: CellParameters = CellParameters()) -> float:
    """Retention time constant (ms) at ``temperature_c``.

    The baseline :class:`CellParameters` is calibrated at the
    worst-case temperature; cooler devices leak proportionally slower.
    """
    return base.retention_tau_ms / leakage_factor_at(temperature_c)


def cell_model_at(temperature_c: float,
                  base_cell: CellParameters = CellParameters(),
                  base_amp: SenseAmpParameters = SenseAmpParameters()
                  ) -> SenseAmpModel:
    """A transient model for a device operating at ``temperature_c``."""
    cell = replace(base_cell,
                   retention_tau_ms=retention_tau_at(temperature_c,
                                                     base_cell))
    return SenseAmpModel(cell, base_amp)

