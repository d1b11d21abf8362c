"""Latency-mechanism interface and composition.

A *latency mechanism* decides, per activation, which (tRCD, tRAS) pair
the memory controller may use.  The controller calls:

* :meth:`LatencyMechanism.on_activate` when it issues an ACT - the
  mechanism returns reduced timings (a "hit") or ``None`` (use device
  defaults).
* :meth:`LatencyMechanism.on_precharge` when it issues a PRE - this is
  where ChargeCache learns about highly-charged rows.

These two hooks are the whole contract: the controller consults a
mechanism at nothing but ACT and PRE.  A mechanism with time-driven
state (ChargeCache's periodic invalidation counters) catches it up
inside its hooks, which is exact as long as the catch-up is
batch-exact: no hook can observe the state between two of them.

Mechanisms are instantiated per memory channel, matching the paper's
per-channel replication.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import ReducedTimings, TimingParameters


class LatencyMechanism:
    """Base class; behaves as the unmodified baseline controller."""

    name = "none"

    def __init__(self, timing: TimingParameters):
        self.timing = timing
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------

    def on_activate(self, rank: int, bank: int, row: int, core_id: int,
                    cycle: int) -> Optional[ReducedTimings]:
        """Return reduced timings for this ACT, or None for defaults."""
        self.lookups += 1
        return None

    def on_precharge(self, rank: int, bank: int, row: int, core_id: int,
                     cycle: int) -> None:
        """Observe a PRE command (row closes, cells fully charged)."""

    def reset_stats(self) -> None:
        self.lookups = 0
        self.hits = 0


class CombinedMechanism(LatencyMechanism):
    """N-way composition of mechanisms (paper's ChargeCache + NUAT).

    Every ACT consults every part; if any hits, the lowest of the
    offered constraints is used for each timing parameter
    independently, which is legal because each hitting mechanism
    guarantees at least that much charge is present.  With exactly two
    parts this is bit-identical to the historical two-way composition.
    """

    def __init__(self, timing: TimingParameters,
                 *mechanisms: LatencyMechanism):
        super().__init__(timing)
        if len(mechanisms) < 2:
            raise ValueError("CombinedMechanism needs >= 2 mechanisms")
        self.mechanisms = tuple(mechanisms)
        self.name = "+".join(m.name for m in mechanisms)

    def on_activate(self, rank, bank, row, core_id, cycle):
        self.lookups += 1
        offer = None
        for mechanism in self.mechanisms:
            timings = mechanism.on_activate(rank, bank, row, core_id, cycle)
            if timings is not None:
                offer = timings if offer is None else offer.min_with(timings)
        if offer is None:
            return None
        self.hits += 1
        return offer

    def on_precharge(self, rank, bank, row, core_id, cycle):
        for mechanism in self.mechanisms:
            mechanism.on_precharge(rank, bank, row, core_id, cycle)

    def reset_stats(self):
        super().reset_stats()
        for mechanism in self.mechanisms:
            mechanism.reset_stats()


def _build_none(ctx, overrides):
    del overrides
    return LatencyMechanism(ctx.timing)
