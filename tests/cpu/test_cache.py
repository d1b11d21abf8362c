"""Unit tests for the shared LLC."""

import pytest

from repro.config import CacheConfig
from repro.cpu.cache import SharedCache
from repro.dram.organization import Organization


class FakeController:
    """Accept/record controller stub with scriptable capacity."""

    def __init__(self, accept=True):
        self.accept = accept
        self.reads = []
        self.writes = []

    def enqueue_read(self, request, cycle):
        if not self.accept:
            return False
        self.reads.append(request)
        return True

    def enqueue_write(self, request, cycle):
        if not self.accept:
            return False
        self.writes.append(request)
        return True


def cached(cache, line):
    """True when ``line`` is resident in ``cache``."""
    lru = cache.sets[line % cache.num_sets]
    return lru is not None and line // cache.num_sets in lru


class Harness:
    def __init__(self, accept=True, size_bytes=4096, assoc=2):
        self.org = Organization(channels=1, ranks=1, banks=4, rows=64,
                                columns=8)
        self.controller = FakeController(accept)
        self.hits = []
        self.completions = []
        self.cache = SharedCache(
            CacheConfig(size_bytes=size_bytes, associativity=assoc),
            self.org, [self.controller],
            hit_notify=lambda c, t, d: self.hits.append((c, t, d)),
            load_notify=lambda c, t: self.completions.append((c, t)),
            current_mem_cycle=lambda: 0)

    def load(self, line, core=0, token=0):
        return self.cache.access_load(core, line, token)

    def fill(self, index=-1):
        self.controller.read_done(self.controller.reads[index])


class TestLoads:
    def test_cold_miss_goes_to_memory(self):
        h = Harness()
        assert h.load(5)
        assert len(h.controller.reads) == 1
        assert h.cache.load_misses == 1

    def test_fill_completes_waiter_and_installs(self):
        h = Harness()
        h.load(5, token=11)
        h.fill()
        assert h.completions == [(0, 11)]
        assert cached(h.cache, 5)

    def test_hit_after_fill(self):
        h = Harness()
        h.load(5)
        h.fill()
        h.load(5, token=22)
        assert h.cache.load_hits == 1
        assert h.hits[-1][1] == 22  # notified via hit path

    def test_mshr_merge(self):
        h = Harness()
        h.load(5, core=0, token=1)
        h.load(5, core=1, token=2)
        assert len(h.controller.reads) == 1  # merged
        h.fill()
        assert sorted(h.completions) == [(0, 1), (1, 2)]


class TestStores:
    def test_store_hit_dirties_line(self):
        h = Harness()
        h.load(5)
        h.fill()
        assert h.cache.access_store(0, 5)
        assert h.cache.store_hits == 1

    def test_store_miss_writes_through(self):
        h = Harness()
        assert h.cache.access_store(0, 5)
        assert len(h.controller.writes) == 1
        assert h.cache.store_misses == 1
        assert not cached(h.cache, 5)  # no-allocate


class TestEvictions:
    def test_lru_eviction(self):
        h = Harness(size_bytes=2 * 64 * 4, assoc=2)  # 4 sets, 2 ways
        sets = h.cache.num_sets
        lines = [0, sets, 2 * sets]  # all map to set 0
        for line in lines:
            h.load(line)
            h.fill()
        assert not cached(h.cache, lines[0])
        assert cached(h.cache, lines[1])
        assert cached(h.cache, lines[2])

    def test_dirty_eviction_writes_back(self):
        h = Harness(size_bytes=2 * 64 * 4, assoc=2)
        sets = h.cache.num_sets
        h.load(0)
        h.fill()
        h.cache.access_store(0, 0)       # dirty line 0
        h.load(sets)
        h.fill()
        h.load(2 * sets)                 # evicts line 0 (dirty)
        h.fill()
        assert len(h.controller.writes) == 1
        wb = h.controller.writes[-1]
        assert wb.line_address == 0

    def test_clean_eviction_is_silent(self):
        h = Harness(size_bytes=2 * 64 * 4, assoc=2)
        sets = h.cache.num_sets
        for line in (0, sets, 2 * sets):
            h.load(line)
            h.fill()
        assert h.controller.writes == []


class TestRetry:
    def test_read_parks_when_controller_full(self):
        h = Harness(accept=False)
        h.load(5)
        assert len(h.cache._mshrs) == 1
        assert not h.controller.reads
        h.controller.accept = True
        h.cache.tick()
        assert len(h.controller.reads) == 1

    def test_store_backpressure(self):
        h = Harness(accept=False)
        for i in range(SharedCache.MAX_PARKED_WRITES):
            assert h.cache.access_store(0, i)
        assert not h.cache.access_store(0, 999)  # back-pressure

    def test_parked_writes_drain(self):
        h = Harness(accept=False)
        h.cache.access_store(0, 1)
        h.controller.accept = True
        h.cache.tick()
        assert len(h.controller.writes) == 1


class TestStats:
    def test_hit_rate(self):
        h = Harness()
        h.load(5)
        h.fill()
        h.load(5)
        assert h.cache.hit_rate() == pytest.approx(0.5)

    def test_reset(self):
        h = Harness()
        h.load(5)
        h.cache.reset_stats()
        assert h.cache.load_misses == 0
