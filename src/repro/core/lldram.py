"""Idealised Low-Latency DRAM (paper Section 6's "LL-DRAM").

An upper-bound comparison point: *every* activation uses the reduced
tRCD/tRAS that ChargeCache applies on a hit, regardless of row charge -
equivalent to ChargeCache with a 100% hit rate.  The paper motivates it
with specialised low-latency parts (RLDRAM / FCRAM [29, 56, 80]).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.config import ChargeCacheConfig
from repro.core.registry import register_mechanism
from repro.core.timing_policy import LatencyMechanism
from repro.dram.standards import derated_reduction_cycles
from repro.dram.timing import ReducedTimings, TimingParameters


class LowLatencyDRAM(LatencyMechanism):
    """Every ACT issued with ChargeCache's hit timings."""

    name = "lldram"

    def __init__(self, timing: TimingParameters,
                 params: Optional[LLDRAMParams] = None):
        super().__init__(timing)
        params = params or LLDRAMParams()
        self.hit_timings = timing.reduced_by(*derated_reduction_cycles(
            timing, params.caching_duration_ms))

    def on_activate(self, rank: int, bank: int, row: int, core_id: int,
                    cycle: int) -> Optional[ReducedTimings]:
        self.lookups += 1
        self.hits += 1
        return self.hit_timings


#: Defaults mirrored from ChargeCacheConfig so a value that is an
#: identity there is one here too (canonical-form dropping must agree).
_CC_DEFAULTS = ChargeCacheConfig()


@dataclass(frozen=True)
class LLDRAMParams:
    """LL-DRAM's registry parameter block.

    Only the timing-relevant subset of :class:`ChargeCacheConfig`:
    LL-DRAM hits on every ACT, so capacity/sharing/unbounded knobs
    would be dead parameters — accepting them inline would let a
    ``lldram(entries=...)`` "sweep" silently produce identical runs
    under distinct cache keys.  They are rejected at parse time like
    any other unknown parameter.
    """

    caching_duration_ms: float = _CC_DEFAULTS.caching_duration_ms

    def validate(self) -> None:
        dataclasses.replace(_CC_DEFAULTS, **dataclasses.asdict(self)) \
            .validate()


@register_mechanism(
    "lldram", params=LLDRAMParams, order=30,
    aliases={"duration_ms": "caching_duration_ms"})
def _build_lldram(ctx, overrides) -> LowLatencyDRAM:
    return LowLatencyDRAM(ctx.timing, LLDRAMParams(**overrides))
