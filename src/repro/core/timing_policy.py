"""Latency-mechanism interface and composition.

A *latency mechanism* decides, per activation, which (tRCD, tRAS) pair
the memory controller may use.  The controller calls:

* :meth:`LatencyMechanism.on_activate` when it issues an ACT - the
  mechanism returns reduced timings (a "hit") or ``None`` (use device
  defaults).
* :meth:`LatencyMechanism.on_precharge` when it issues a PRE - this is
  where ChargeCache learns about highly-charged rows.
* :meth:`LatencyMechanism.maintain` on a controller tick once the
  clock reaches :meth:`LatencyMechanism.next_wake`, used by
  ChargeCache's periodic invalidation counters.

Mechanisms are instantiated per memory channel, matching the paper's
per-channel replication.
"""

from __future__ import annotations

from typing import Optional

from repro.core.registry import register_mechanism
from repro.dram.timing import NEVER, ReducedTimings, TimingParameters


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

    def maintain(self, cycle: int) -> None:
        """Perform periodic housekeeping up to ``cycle``."""

    def next_wake(self, cycle: int) -> int:
        """Earliest cycle at which this mechanism next needs a
        :meth:`maintain` call.

        The event engine no longer polls :meth:`maintain` every cycle,
        so a mechanism with time-driven state registers its next
        deadline here instead of relying on being ticked.  ``NEVER``
        (the default) means the mechanism is purely reactive - its
        housekeeping is batch-exact and can run lazily at the next
        command boundary.

        Contract: the value may change only inside :meth:`on_activate`,
        :meth:`on_precharge` and :meth:`maintain`; between those calls
        it is the same for every ``cycle``.  The memory controller
        caches it after each of them and calls :meth:`maintain` only
        once the clock reaches the cached cycle.
        """
        del cycle
        return NEVER

    def reset_stats(self) -> None:
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DefaultTiming(LatencyMechanism):
    """Explicit alias of the baseline (every ACT at default timings)."""

    name = "none"


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

    def maintain(self, cycle):
        for mechanism in self.mechanisms:
            mechanism.maintain(cycle)

    def next_wake(self, cycle):
        return min(mechanism.next_wake(cycle)
                   for mechanism in self.mechanisms)

    def reset_stats(self):
        super().reset_stats()
        for mechanism in self.mechanisms:
            mechanism.reset_stats()


@register_mechanism("none", order=0,
                    description="unmodified baseline controller")
def _build_none(ctx, overrides):
    del overrides
    return DefaultTiming(ctx.timing)
