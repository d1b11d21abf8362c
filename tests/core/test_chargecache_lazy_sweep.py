"""Differential test: ChargeCache's lazy invalidation sweep against one
advanced at every IIC wrap.

The memory controller consults a mechanism only at ACT and PRE, so
ChargeCache catches its IIC/EC sweep up at the start of each lookup and
insert, in one ``PeriodicInvalidator.advance_to`` call however many
wraps it covers; a gap of a full sweep or more takes the
``wraps >= entries`` path, which clears the table at once.  The
hardware scheme instead invalidates one entry at every wrap.  The
reference below does exactly that: before each hook it steps every
invalidator wrap by wrap, one ``advance_to`` per wrap, so it never
takes the clear path.

Hypothesis drives both with identical random ACT/PRE streams on 64-2048
entries, associativity 1, 2 and 4, per-core and shared tables.  The
gaps between commands fall within an IIC interval, span a few wraps,
land exactly on a wrap near a whole number of sweeps, or last up to
several full sweeps.  After every hook the lookup result, every table's
tags, LRU stamps and use counter, and each invalidator's entry counter
and last wrap must agree.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import ChargeCacheConfig
from repro.core.chargecache import ChargeCache
from repro.dram.timing import DDR3_1600


class EagerChargeCache(ChargeCache):
    """Advanced at every IIC wrap, as if the controller woke for each."""

    def _step_every_wrap(self, cycle: int) -> None:
        for invalidator in self.invalidators:
            while invalidator.next_wrap_cycle() <= cycle:
                invalidator.advance_to(invalidator.next_wrap_cycle())
        self._next_wrap = self._earliest_wrap()

    def on_activate(self, rank, bank, row, core_id, cycle):
        self._step_every_wrap(cycle)
        return super().on_activate(rank, bank, row, core_id, cycle)

    def on_precharge(self, rank, bank, row, core_id, cycle):
        self._step_every_wrap(cycle)
        super().on_precharge(rank, bank, row, core_id, cycle)


def sweep_state(mech: ChargeCache) -> tuple:
    return (mech.lookups, mech.hits,
            [(inv.entry_counter, inv._last_cycle)
             for inv in mech.invalidators],
            [(table._use_counter, table._tags, table._stamp)
             for table in mech.tables])


# Rows in four sets of every table size (16 tags each) make hits,
# re-insertions and LRU evictions; wide ones spread over the table.
rows = st.one_of(st.builds(lambda tag, low: tag << 11 | low,
                           st.integers(0, 15), st.integers(0, 3)),
                 st.integers(0, (1 << 32) - 1))
gaps = st.one_of(
    st.tuples(st.just("cycles"), st.integers(0, 40)),
    st.tuples(st.just("wraps"), st.integers(0, 40)),
    # Exactly onto the wrap that ends k sweeps, give or take two.
    st.tuples(st.just("sweeps"), st.integers(1, 3), st.integers(-2, 2)),
    # Up to four full sweeps, in thousandths of a sweep.
    st.tuples(st.just("long"), st.integers(0, 4000)),
)
events = st.lists(st.tuples(
    st.sampled_from(("A", "P", "P")),
    st.integers(0, 1), st.integers(0, 7), rows,
    st.integers(-1, 4),                      # core id (-1: no core)
    gaps),
    min_size=5, max_size=40)


def _next_cycle(mech: ChargeCache, cycle: int, gap: tuple) -> int:
    invalidator = mech.invalidators[0]
    interval = invalidator.interval
    kind = gap[0]
    if kind == "cycles":
        return cycle + gap[1]
    if kind == "wraps":
        return cycle + gap[1] * interval
    if kind == "sweeps":
        # The hooks catch up whenever a wrap is due, so the last wrap
        # run is the last one at or before ``cycle``, and the next
        # ``advance_to`` covers exactly ``wraps`` wraps.
        wraps = gap[1] * invalidator.hcrac.entries + gap[2]
        return invalidator.next_wrap_cycle() + (wraps - 1) * interval
    return cycle + gap[1] * interval * invalidator.hcrac.entries // 1000


@given(entries=st.sampled_from((64, 128, 256, 512, 1024, 2048)),
       associativity=st.sampled_from((1, 2, 4)),
       sharing=st.sampled_from(("per-core", "shared")),
       num_cores=st.integers(1, 4),
       time_scale=st.sampled_from((1.0, 100.0, 1000.0)),
       stream=events)
@settings(max_examples=100, deadline=None)
def test_lazy_sweep_matches_a_sweep_at_every_wrap(entries, associativity,
                                                  sharing, num_cores,
                                                  time_scale, stream):
    config = ChargeCacheConfig(entries=entries, associativity=associativity,
                               sharing=sharing, time_scale=time_scale)
    lazy = ChargeCache(DDR3_1600, config, num_cores)
    eager = EagerChargeCache(DDR3_1600, config, num_cores)
    cycle = 0
    for kind, rank, bank, row, core_id, gap in stream:
        cycle = _next_cycle(lazy, cycle, gap)
        if kind == "A":
            assert lazy.on_activate(rank, bank, row, core_id, cycle) == \
                eager.on_activate(rank, bank, row, core_id, cycle)
        else:
            lazy.on_precharge(rank, bank, row, core_id, cycle)
            eager.on_precharge(rank, bank, row, core_id, cycle)
        assert sweep_state(lazy) == sweep_state(eager)
