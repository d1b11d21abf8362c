"""Circuit-level models: DRAM cell, sense amplifier and the derived
latency tables (paper Figure 6 and Table 2).

This subpackage is the reproduction's substitute for the paper's SPICE
setup (55 nm DDR3 sense-amplifier netlist with PTM low-power
transistors).  It provides a transient simulator of the charge-sharing
and sense-amplification phases plus the caching-duration -> (tRCD, tRAS)
tables the memory controller consumes.
"""

from repro.circuit.cell import CellParameters, cell_voltage_after
from repro.circuit.sense_amp import SenseAmpModel, TransientResult
from repro.circuit.spice import bitline_transient, find_latency_pair
from repro.circuit.latency_tables import (
    BASELINE_TIMINGS_NS,
    DURATION_TABLE_NS,
    DURATION_REDUCTIONS_CYCLES,
    reductions_for_duration_ms,
    nuat_bin_reductions,
)

__all__ = [
    "CellParameters",
    "cell_voltage_after",
    "SenseAmpModel",
    "TransientResult",
    "bitline_transient",
    "find_latency_pair",
    "BASELINE_TIMINGS_NS",
    "DURATION_TABLE_NS",
    "DURATION_REDUCTIONS_CYCLES",
    "reductions_for_duration_ms",
    "nuat_bin_reductions",
]
