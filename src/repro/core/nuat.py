"""NUAT baseline (Shin et al., "NUAT: A non-uniform access time memory
controller", HPCA 2014) - the paper's main comparison point.

NUAT lowers activation timings for rows that were *refreshed* recently:
right after its periodic refresh a row is fully charged and senses
faster.  The controller bins each activated row by its refresh age and
applies per-bin timing parameters (the paper evaluates NUAT's default
"5PB" five-bin configuration and derives bin timings with SPICE; we use
the shared derating table in :mod:`repro.circuit.latency_tables`).

Because the refresh schedule is uncorrelated with program behaviour,
only ~12% of activations land in the youngest useful bins - the paper's
motivation for ChargeCache (Figure 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.config import NUATConfig
from repro.circuit.latency_tables import nuat_bin_reductions
from repro.core.registry import MechanismContext
from repro.core.timing_policy import LatencyMechanism
from repro.dram.timing import ReducedTimings, TimingParameters

if TYPE_CHECKING:
    from repro.dram.refresh import RefreshScheduler


class NUAT(LatencyMechanism):
    """Refresh-age-binned activation timings."""

    name = "nuat"

    def __init__(self, timing: TimingParameters, config: NUATConfig,
                 refresh: RefreshScheduler):
        super().__init__(timing)
        config.validate()
        self.config = config
        self.refresh = refresh
        # Precompute (age_upper_edge_cycles, timings-or-None) per bin.
        self._bins: List[Tuple[int, Optional[ReducedTimings]]] = []
        for edge_ms, (trcd_red, tras_red) in \
                nuat_bin_reductions(config.bin_edges_ms):
            edge_cycles = timing.ms_to_cycles(edge_ms)
            if trcd_red == 0 and tras_red == 0:
                self._bins.append((edge_cycles, None))
            else:
                self._bins.append(
                    (edge_cycles, timing.reduced_by(trcd_red, tras_red)))

    # ------------------------------------------------------------------

    def on_activate(self, rank: int, bank: int, row: int, core_id: int,
                    cycle: int) -> Optional[ReducedTimings]:
        """Bin the row by refresh age; reduced timings for young rows."""
        self.lookups += 1
        age = self.refresh.row_refresh_age_cycles(rank, row, cycle)
        for edge, timings in self._bins:
            if age <= edge:
                if timings is not None:
                    self.hits += 1
                return timings
        return None


def _build_nuat(ctx: MechanismContext, overrides) -> NUAT:
    if ctx.refresh_scheduler is None:
        raise ValueError(
            "nuat needs the channel's refresh scheduler; supply it via "
            "MechanismContext(refresh_scheduler=...)")
    return NUAT(ctx.timing, NUATConfig(**overrides),
                ctx.refresh_scheduler)
