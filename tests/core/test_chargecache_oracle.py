"""Differential test: one-call ChargeCache/HCRAC decisions against the
helper formulation.

``HCRAC.lookup``/``insert`` take the set and tag from a precomputed
mask and shift and find the LRU victim with ``list.index``;
``ChargeCache.on_activate``/``on_precharge`` catch the invalidation
sweep up only when an IIC wrap is due, and pack the row key and pick
the table inline.  The references below keep the earlier formulation
verbatim as an oracle: ``HCRAC._index``, eviction by ``min(key=...)``,
a maintained valid-entry count, ``ChargeCache._table_index``, a
sweep catch-up on every hook and :func:`row_key`.

Hypothesis drives both with identical random ACT/PRE streams (random
keys, core ids and cycle gaps that cross IIC wraps and whole sweeps) on
64-2048 entries, associativity 1, 2 and 4, shared and per-core tables,
and unbounded tables.  After every event the decisions, every table's
tags, LRU stamps and counters, and the invalidators must agree.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.config import ChargeCacheConfig
from repro.core.chargecache import ChargeCache, row_key
from repro.core.hcrac import HCRAC
from repro.core.invalidation import PeriodicInvalidator
from repro.dram.timing import DDR3_1600


class ReferenceHCRAC:
    """The HCRAC with ``_index`` and ``min(key=...)`` eviction."""

    def __init__(self, entries: int = 128, associativity: int = 2):
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._tags: List[List[Optional[int]]] = [
            [None] * associativity for _ in range(self.num_sets)]
        self._stamp: List[List[int]] = [
            [0] * associativity for _ in range(self.num_sets)]
        self._use_counter = 0
        self._valid = 0

    def _index(self, key: int) -> Tuple[int, int]:
        set_idx = key & (self.num_sets - 1)
        tag = key >> (self.num_sets.bit_length() - 1)
        return set_idx, tag

    def lookup(self, key: int, touch: bool = True) -> bool:
        set_idx, tag = self._index(key)
        tags = self._tags[set_idx]
        for way in range(self.associativity):
            if tags[way] == tag:
                if touch:
                    self._use_counter += 1
                    self._stamp[set_idx][way] = self._use_counter
                return True
        return False

    def insert(self, key: int) -> None:
        set_idx, tag = self._index(key)
        tags = self._tags[set_idx]
        stamps = self._stamp[set_idx]
        self._use_counter += 1
        for way in range(self.associativity):
            if tags[way] == tag:
                stamps[way] = self._use_counter
                return
        victim = None
        for way in range(self.associativity):
            if tags[way] is None:
                victim = way
                break
        if victim is None:
            victim = min(range(self.associativity), key=lambda w: stamps[w])
        else:
            self._valid += 1
        tags[victim] = tag
        stamps[victim] = self._use_counter

    def invalidate_entry(self, entry_index: int) -> bool:
        if not 0 <= entry_index < self.entries:
            raise IndexError(f"entry {entry_index} out of range")
        set_idx, way = divmod(entry_index, self.associativity)
        if self._tags[set_idx][way] is None:
            return False
        self._tags[set_idx][way] = None
        self._valid -= 1
        return True

    def clear(self) -> None:
        for set_idx in range(self.num_sets):
            for way in range(self.associativity):
                self._tags[set_idx][way] = None
        self._valid = 0

    def __contains__(self, key: int) -> bool:
        return self.lookup(key, touch=False)

    def __len__(self) -> int:
        return self._valid


class ReferenceChargeCache(ChargeCache):
    """ChargeCache over reference tables with the helper hooks
    (``_catch_up`` and ``_earliest_wrap`` are inherited unchanged)."""

    def __init__(self, timing, config, num_cores):
        super().__init__(timing, config, num_cores)
        self._num_cores = num_cores
        self._shared = config.sharing == "shared"
        if not self.unbounded:
            self.tables = [ReferenceHCRAC(config.entries,
                                          config.associativity)
                           for _ in self.tables]
            sweep_cycles = max(self.duration_cycles, config.entries)
            self.invalidators = [PeriodicInvalidator(table, sweep_cycles)
                                 for table in self.tables]
            self._next_wrap = self._earliest_wrap()

    def _table_index(self, core_id: int) -> int:
        if self._shared:
            return 0
        if core_id < 0:
            return 0
        return core_id % self._num_cores

    def on_activate(self, rank, bank, row, core_id, cycle):
        if not self.unbounded:
            self._catch_up(cycle)
        self.lookups += 1
        key = row_key(rank, bank, row)
        idx = self._table_index(core_id)
        table = self.tables[idx]
        if self.unbounded:
            hit = table.lookup(key, cycle)
        else:
            hit = table.lookup(key)
        if hit:
            self.hits += 1
            return self.hit_timings
        return None

    def on_precharge(self, rank, bank, row, core_id, cycle):
        if not self.unbounded:
            self._catch_up(cycle)
        key = row_key(rank, bank, row)
        table = self.tables[self._table_index(core_id)]
        if self.unbounded:
            table.insert(key, cycle)
        else:
            table.insert(key)


def table_state(table) -> tuple:
    if isinstance(table, (HCRAC, ReferenceHCRAC)):
        return (len(table), table._use_counter, table._tags, table._stamp)
    return len(table), dict(table._inserted_at)


def mechanism_state(mech) -> tuple:
    invalidators = [None if inv is None else
                    (inv.entry_counter, inv._last_cycle)
                    for inv in mech.invalidators]
    return (mech.lookups, mech.hits, mech._next_wrap,
            invalidators, [table_state(t) for t in mech.tables])


# Keys (or rows) in four sets of every table size, with 16 tags each,
# make hits, re-insertions, set conflicts and LRU evictions; wide ones
# spread over the table.
crowded = st.builds(lambda tag, low: tag << 11 | low,
                    st.integers(0, 15), st.integers(0, 3))
rows = st.one_of(crowded, st.integers(0, (1 << 32) - 1))
events = st.lists(st.tuples(
    st.sampled_from(("A", "P", "P")),
    st.integers(0, 1), st.integers(0, 7), rows,
    st.integers(-1, 4),                      # core id (-1: no core)
    # Cycle gaps: within an IIC interval, a few wraps, or whole sweeps.
    st.one_of(st.integers(0, 40), st.integers(0, 3000),
              st.integers(0, 200_000))),
    min_size=10, max_size=80)


@given(entries=st.sampled_from((64, 128, 256, 512, 1024, 2048)),
       associativity=st.sampled_from((1, 2, 4)),
       sharing=st.sampled_from(("per-core", "shared")),
       unbounded=st.booleans(),
       num_cores=st.integers(1, 4),
       time_scale=st.sampled_from((1.0, 100.0, 1000.0)),
       stream=events)
@settings(max_examples=150, deadline=None)
def test_one_call_decisions_match_helpers(entries, associativity, sharing,
                                          unbounded, num_cores, time_scale,
                                          stream):
    config = ChargeCacheConfig(entries=entries, associativity=associativity,
                               sharing=sharing, unbounded=unbounded,
                               time_scale=time_scale)
    mech = ChargeCache(DDR3_1600, config, num_cores)
    reference = ReferenceChargeCache(DDR3_1600, config, num_cores)
    assert mechanism_state(mech) == mechanism_state(reference)
    cycle = 0
    for kind, rank, bank, row, core_id, gap in stream:
        cycle += gap
        if kind == "A":
            assert mech.on_activate(rank, bank, row, core_id, cycle) == \
                reference.on_activate(rank, bank, row, core_id, cycle)
        else:
            mech.on_precharge(rank, bank, row, core_id, cycle)
            reference.on_precharge(rank, bank, row, core_id, cycle)
        assert mechanism_state(mech) == mechanism_state(reference)


@given(entries=st.sampled_from((64, 256, 2048)),
       associativity=st.sampled_from((1, 2, 4)),
       ops=st.lists(st.tuples(
           st.sampled_from(("insert", "insert", "lookup", "peek",
                            "invalidate", "clear")),
           st.one_of(crowded, st.integers(0, 1 << 40))),
           min_size=10, max_size=120))
@settings(max_examples=150, deadline=None)
def test_hcrac_matches_reference(entries, associativity, ops):
    table = HCRAC(entries, associativity)
    reference = ReferenceHCRAC(entries, associativity)
    for op, value in ops:
        if op == "insert":
            table.insert(value)
            reference.insert(value)
        elif op == "lookup":
            assert table.lookup(value) == reference.lookup(value)
        elif op == "peek":
            assert (value in table) == (value in reference)
        elif op == "invalidate":
            entry = value % entries
            assert table.invalidate_entry(entry) == \
                reference.invalidate_entry(entry)
        else:
            table.clear()
            reference.clear()
        assert table_state(table) == table_state(reference)


@given(rank=st.integers(0, 3), bank=st.integers(0, 63),
       row=st.integers(0, (1 << 32) - 1), core_id=st.integers(-1, 3),
       sharing=st.sampled_from(("per-core", "shared")),
       unbounded=st.booleans())
@settings(max_examples=200, deadline=None)
def test_hooks_pack_the_row_key(rank, bank, row, core_id, sharing,
                                unbounded):
    """The hooks' inline packing is :func:`row_key`'s, into the table
    ``_table_index`` names."""
    config = ChargeCacheConfig(sharing=sharing, unbounded=unbounded)
    mech = ChargeCache(DDR3_1600, config, num_cores=4)
    mech.on_precharge(rank, bank, row, core_id, 10)
    index = 0 if sharing == "shared" or core_id < 0 else core_id % 4
    table = mech.tables[index]
    key = row_key(rank, bank, row)
    if unbounded:
        assert list(table._inserted_at) == [key]
    else:
        assert key in table
        assert len(table) == 1
    assert mech.on_activate(rank, bank, row, core_id, 20) is not None
