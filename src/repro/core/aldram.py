"""AL-DRAM-style temperature-adaptive timings (paper Section 7.1).

Adaptive-Latency DRAM (Lee et al., HPCA 2015 [48]) observes that DRAM
rarely operates at the worst-case 85 C for which timings are specified;
a cooler device leaks less, so *every* activation can use lowered
tRCD/tRAS.  The ChargeCache paper discusses AL-DRAM as orthogonal:

* ChargeCache's reductions hold at any temperature (they are validated
  against a worst-case-temperature cell that is only ``caching
  duration`` old).
* AL-DRAM's reductions shrink as the device heats and vanish at 85 C,
  which is why it helps little for hot 3D-stacked parts (HMC/HBM).
* The two compose: at low temperature, a ChargeCache hit row is both
  recently charged *and* slowly leaking.

:class:`ALDRAM` derives its per-temperature timings from the repo's
circuit model: the worst-case cell (64 ms old, i.e. just before its
refresh deadline) is simulated with the leakage rate of the operating
temperature, and the resulting ready/restore latencies are converted to
cycles with the same spec margins as the DDR3 baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.circuit.spice import (
    WORST_CASE_AGE_MS,
    find_latency_pair,
    spec_margins,
)
from repro.circuit.temperature import (
    WORST_CASE_TEMPERATURE_C,
    cell_model_at,
)
from repro.core.registry import MechanismContext, register_mechanism
from repro.core.timing_policy import LatencyMechanism
from repro.dram.timing import ReducedTimings, TimingParameters


@dataclass(frozen=True)
class ALDRAMParams:
    """AL-DRAM's registry parameter block: the operating temperature,
    set inline in a spec (``aldram(temperature=55)``)."""

    temperature_c: float = WORST_CASE_TEMPERATURE_C

    def validate(self) -> None:
        if not -40.0 <= self.temperature_c <= 125.0:
            raise ValueError(
                f"temperature_c={self.temperature_c} outside the "
                f"modelled -40..125 C range")


def aldram_timings_at(temperature_c: float,
                      timing: TimingParameters) -> ReducedTimings:
    """Device-wide (tRCD, tRAS) at an operating temperature.

    At >= 85 C this returns the baseline timings (no reduction); cooler
    devices earn progressively lower values, floored at 1 cycle.
    """
    if temperature_c >= WORST_CASE_TEMPERATURE_C:
        return timing.default_timings()
    margin_rcd, margin_ras = spec_margins()
    model = cell_model_at(temperature_c)
    ready, restore = find_latency_pair(WORST_CASE_AGE_MS, model=model)
    trcd = max(1, math.ceil((ready + margin_rcd) / timing.tCK_ns))
    tras = max(1, math.ceil((restore + margin_ras) / timing.tCK_ns))
    return ReducedTimings(min(trcd, timing.tRCD), min(tras, timing.tRAS))


class ALDRAM(LatencyMechanism):
    """Every activation at temperature-derated timings."""

    name = "aldram"

    def __init__(self, timing: TimingParameters,
                 temperature_c: float = WORST_CASE_TEMPERATURE_C):
        super().__init__(timing)
        self.temperature_c = temperature_c
        self.timings = aldram_timings_at(temperature_c, timing)
        self._is_reduction = (self.timings.trcd < timing.tRCD
                              or self.timings.tras < timing.tRAS)

    def on_activate(self, rank: int, bank: int, row: int, core_id: int,
                    cycle: int) -> Optional[ReducedTimings]:
        self.lookups += 1
        if not self._is_reduction:
            return None
        self.hits += 1
        return self.timings


@register_mechanism(
    "aldram", params=ALDRAMParams, order=40,
    aliases={"temperature": "temperature_c"})
def _build_aldram(ctx: MechanismContext, overrides) -> ALDRAM:
    return ALDRAM(ctx.timing, ALDRAMParams(**overrides).temperature_c)
