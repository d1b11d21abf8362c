"""ChargeCache: the paper's proposed mechanism (Section 4).

Operation per memory channel:

1. **Insert** - when the controller issues a PRE, the address of the row
   that was open in that bank is inserted into the HCRAC of the core
   that last activated it (the paper replicates ChargeCache per core and
   per channel).
2. **Lookup** - when the controller is about to issue an ACT on behalf
   of core *c*, it looks the row address up in core *c*'s HCRAC.  On a
   hit, the ACT is issued with lowered tRCD/tRAS (4/8 bus cycles lower
   by default - the paper's 1 ms caching-duration numbers).
3. **Invalidate** - the IIC/EC two-counter scheme sweeps each HCRAC once
   per caching duration so that no valid entry can refer to a row that
   has leaked below the reduced-timing charge level.  The sweep is
   caught up at the start of each lookup and insert, the only places
   that read or write the tables; the catch-up is batch-exact, so each
   hook sees the tables the hardware sweep would have left.

A ``sharing="shared"`` mode keeps a single table per channel (paper
footnote 2 - left as future work there, implemented here).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import ChargeCacheConfig
from repro.core.hcrac import HCRAC, UnboundedHCRAC
from repro.core.invalidation import PeriodicInvalidator
from repro.core.registry import MechanismContext, parse_mechanism_spec
from repro.core.timing_policy import LatencyMechanism
from repro.dram.standards import derated_reduction_cycles
from repro.dram.timing import NEVER, ReducedTimings, TimingParameters


def row_key(rank: int, bank: int, row: int) -> int:
    """Pack a (rank, bank, row) triple into one integer key.

    The row occupies the low bits so that the HCRAC set index is taken
    from row-address bits, as a hardware implementation would.
    :meth:`ChargeCache.on_activate` and :meth:`ChargeCache.on_precharge`
    pack inline; a test checks them against this definition.
    """
    return ((rank << 6) | bank) << 32 | row


class ChargeCache(LatencyMechanism):
    """Memory-controller-side tracker of highly-charged rows.

    Its statistics are the base class's ``lookups`` and ``hits``:
    inserts, evictions and invalidations change only the tables.
    """

    name = "chargecache"

    def __init__(self, timing: TimingParameters, config: ChargeCacheConfig,
                 num_cores: int):
        super().__init__(timing)
        config.validate()
        self.config = config
        self.duration_cycles = max(
            1, timing.ms_to_cycles(
                config.caching_duration_ms / config.time_scale))
        self.hit_timings = timing.reduced_by(*derated_reduction_cycles(
            timing, config.caching_duration_ms))
        num_tables = 1 if config.sharing == "shared" else num_cores
        self._num_tables = num_tables
        self.unbounded = config.unbounded
        if self.unbounded:
            self.tables: List[UnboundedHCRAC] = [
                UnboundedHCRAC(self.duration_cycles)
                for _ in range(num_tables)]
            self.invalidators: List[Optional[PeriodicInvalidator]] = \
                [None] * num_tables
        else:
            self.tables = [HCRAC(config.entries, config.associativity)
                           for _ in range(num_tables)]
            # The IIC/EC sweep needs at least one cycle per entry.
            sweep_cycles = max(self.duration_cycles, config.entries)
            self.invalidators = [
                PeriodicInvalidator(table, sweep_cycles)
                for table in self.tables]
        #: Earliest next IIC wrap over all invalidators: the sweep has
        #: nothing to catch up before it.
        self._next_wrap = self._earliest_wrap()

    # ------------------------------------------------------------------

    def on_activate(self, rank: int, bank: int, row: int, core_id: int,
                    cycle: int) -> Optional[ReducedTimings]:
        """HCRAC lookup; reduced timings on a hit (paper Section 4.2.2).

        Core ``core_id``'s table (table 0 when shared or for a negative
        id) is probed with the :func:`row_key` of the row, inline.
        """
        if cycle >= self._next_wrap:
            self._catch_up(cycle)
        self.lookups += 1
        key = ((rank << 6) | bank) << 32 | row
        table = self.tables[core_id % self._num_tables
                            if core_id >= 0 else 0]
        if self.unbounded:
            hit = table.lookup(key, cycle)
        else:
            hit = table.lookup(key)
        if hit:
            self.hits += 1
            return self.hit_timings
        return None

    def on_precharge(self, rank: int, bank: int, row: int, core_id: int,
                     cycle: int) -> None:
        """HCRAC insert: the closing row is highly charged (Sec. 4.2.1).

        Table and key as in :meth:`on_activate`.
        """
        if cycle >= self._next_wrap:
            self._catch_up(cycle)
        key = ((rank << 6) | bank) << 32 | row
        table = self.tables[core_id % self._num_tables
                            if core_id >= 0 else 0]
        if self.unbounded:
            table.insert(key, cycle)
        else:
            table.insert(key)

    def _catch_up(self, cycle: int) -> None:
        """Advance the IIC/EC invalidation counters to ``cycle`` (a wrap
        is due: ``cycle >= _next_wrap``)."""
        for invalidator in self.invalidators:
            invalidator.advance_to(cycle)
        self._next_wrap = self._earliest_wrap()

    def _earliest_wrap(self) -> int:
        if self.unbounded:
            return NEVER  # no sweep: entries expire lazily by age
        return min(inv.next_wrap_cycle() for inv in self.invalidators)


# ----------------------------------------------------------------------
# Registry binding
# ----------------------------------------------------------------------

def chargecache_params(mechanism: str) -> ChargeCacheConfig:
    """The ChargeCache parameters a mechanism spec runs with: the
    defaults plus its ``chargecache`` term's inline values
    (the defaults alone when the spec has no such term)."""
    term = parse_mechanism_spec(mechanism).term("chargecache")
    return ChargeCacheConfig(**(term.overrides if term is not None else {}))


def _build_chargecache(ctx: MechanismContext,
                       overrides: Dict[str, object]) -> ChargeCache:
    return ChargeCache(ctx.timing, ChargeCacheConfig(**overrides),
                       ctx.num_cores)
