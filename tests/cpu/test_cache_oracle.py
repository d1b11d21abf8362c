"""Differential test: the list-LRU LLC against its dict-LRU formulation.

``SharedCache`` keeps each set as a list of tags, oldest first (a hit
moves its tag to the end, a fill evicts ``lru.pop(0)``), and the dirty
lines as one cache-wide set of line addresses.  The reference below
keeps the earlier formulation verbatim as an oracle: one
``{tag: dirty flag}`` dict per set, whose insertion order is the LRU
order.

Hypothesis drives both with identical random loads, stores, fills,
refusing controllers and retries on small caches (1-4 sets, 1-4
ways).  After every operation the hits, misses, notifications, the
requests each controller saw (store misses and dirty-victim
writebacks), the parked retries, the resident tags in LRU order and
the dirty lines must agree.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict

from hypothesis import given, settings, strategies as st

from repro.config import LLC_HIT_LATENCY_CYCLES, CacheConfig
from repro.controller.request import Request, RequestType
from repro.cpu.cache import SharedCache
from repro.dram.organization import Organization


class ReferenceSharedCache(SharedCache):
    """The LLC with a ``{tag: dirty}`` dict per set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sets: DefaultDict[int, Dict[int, bool]] = defaultdict(dict)

    def access_load(self, core_id: int, line_address: int,
                    token: int) -> bool:
        lru = self.sets[line_address % self.num_sets]
        tag = line_address // self.num_sets
        if tag in lru:
            lru[tag] = lru.pop(tag)
            self.load_hits += 1
            self.hit_notify(core_id, token, LLC_HIT_LATENCY_CYCLES)
            return True
        self.load_misses += 1
        waiters = self._mshrs.get(line_address)
        if waiters is not None:
            waiters.append((core_id, token))
            return True
        self._mshrs[line_address] = [(core_id, token)]
        request = Request(line_address, RequestType.READ, core_id)
        self.mapper.decode_into(request)
        if not self.controllers[request.channel].enqueue_read(
                request, self.mem_cycle()):
            self.retry_reads.append(request)
        return True

    def access_store(self, core_id: int, line_address: int) -> bool:
        lru = self.sets[line_address % self.num_sets]
        tag = line_address // self.num_sets
        if tag in lru:
            del lru[tag]
            lru[tag] = True  # dirty, and now most recently used
            self.store_hits += 1
            return True
        self.store_misses += 1
        request = Request(line_address, RequestType.WRITE, core_id)
        self.mapper.decode_into(request)
        return self._send_write(request)

    def _fill(self, request: Request) -> None:
        line_address = request.line_address
        waiters = self._mshrs.pop(line_address, None)
        if waiters is None:
            return  # e.g. a probe request not tracked by an MSHR
        lru = self.sets[line_address % self.num_sets]
        tag = line_address // self.num_sets
        if tag not in lru:
            if len(lru) >= self.assoc:
                victim_tag = next(iter(lru))
                dirty = lru.pop(victim_tag)
                if dirty:
                    self._writeback(line_address, victim_tag,
                                    request.core_id)
            lru[tag] = False
        notify = self.load_notify
        for core_id, token in waiters:
            notify(core_id, token)

    def _writeback(self, incoming_line: int, victim_tag: int,
                   core_id: int) -> None:
        set_idx = incoming_line % self.num_sets
        victim_line = victim_tag * self.num_sets + set_idx
        request = Request(victim_line, RequestType.WRITE, core_id)
        self.mapper.decode_into(request)
        self._send_write(request, must_park=True)


class Controller:
    """Records what it accepts; refuses everything while ``full``."""

    def __init__(self):
        self.full = False
        self.reads = []
        self.writes = []
        #: Accepted reads not yet filled.
        self.pending = []

    def enqueue_read(self, request, cycle):
        if self.full:
            return False
        self.reads.append(request)
        self.pending.append(request)
        return True

    def enqueue_write(self, request, cycle):
        if self.full:
            return False
        self.writes.append(request)
        return True


class Side:
    """One cache, its controller and the notifications it made."""

    def __init__(self, cls, sets, ways):
        org = Organization(channels=1, ranks=1, banks=4, rows=64,
                           columns=8)
        self.controller = Controller()
        self.events = []
        self.cache = cls(
            CacheConfig(size_bytes=64 * sets * ways, associativity=ways),
            org, [self.controller],
            hit_notify=lambda c, t, d: self.events.append(("hit", c, t)),
            load_notify=lambda c, t: self.events.append(("done", c, t)),
            current_mem_cycle=lambda: 0)

    def apply(self, op):
        kind, line, core = op
        cache, controller = self.cache, self.controller
        if kind == "load":
            return cache.access_load(core, line, len(self.events))
        if kind == "store":
            return cache.access_store(core, line)
        if kind == "fill":
            pending = controller.pending
            if pending:
                controller.read_done(pending.pop(line % len(pending)))
        elif kind == "refuse":
            controller.full = True
        elif kind == "accept":
            controller.full = False
        else:
            cache.tick()
        return None

    def state(self, resident, dirty):
        cache, controller = self.cache, self.controller
        return (cache.load_hits, cache.load_misses, cache.store_hits,
                cache.store_misses, list(self.events),
                _lines(controller.reads), _lines(controller.writes),
                _lines(cache.retry_reads), _lines(cache.retry_writes),
                resident, dirty)


def _lines(requests):
    return [request.line_address for request in requests]


def reference_state(side):
    """The reference creates a set on lookup, the LLC on its first
    fill: compare the sets that hold lines."""
    sets = side.cache.sets
    num_sets = side.cache.num_sets
    return side.state(
        {idx: list(lru) for idx, lru in sets.items() if lru},
        {tag * num_sets + idx for idx, lru in sets.items()
         for tag, dirty in lru.items() if dirty})


def list_state(side):
    return side.state({idx: list(lru) for idx, lru in
                       enumerate(side.cache.sets) if lru is not None},
                      set(side.cache.dirty))


op = st.tuples(st.sampled_from(("load", "load", "load", "store", "fill",
                                "fill", "fill", "refuse", "accept",
                                "tick")),
               st.integers(0, 63), st.integers(0, 3))


@given(sets=st.sampled_from((1, 2, 4)), ways=st.sampled_from((1, 2, 4)),
       ops=st.lists(op, min_size=20, max_size=120))
@settings(max_examples=300, deadline=None)
def test_list_lru_matches_dict_lru(sets, ways, ops):
    ours = Side(SharedCache, sets, ways)
    reference = Side(ReferenceSharedCache, sets, ways)
    for step, (kind, line, core) in enumerate(ops):
        line %= sets * (ways + 2)  # two tags more than a set holds
        assert ours.apply((kind, line, core)) \
            == reference.apply((kind, line, core)), step
        assert list_state(ours) == reference_state(reference), step
