"""Unit and property tests for the HCRAC tag store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hcrac import HCRAC, UnboundedHCRAC


class TestConstruction:
    def test_paper_configuration(self):
        cache = HCRAC(entries=128, associativity=2)
        assert cache.num_sets == 64

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            HCRAC(entries=0)
        with pytest.raises(ValueError):
            HCRAC(entries=10, associativity=4)  # not divisible
        with pytest.raises(ValueError):
            HCRAC(entries=24, associativity=2)  # sets not power of two


class TestBasicOperations:
    def test_miss_then_hit(self):
        cache = HCRAC(8, 2)
        assert not cache.lookup(42)
        cache.insert(42)
        assert cache.lookup(42)
        assert 42 in cache

    def test_len_counts_valid(self):
        cache = HCRAC(8, 2)
        for key in range(5):
            cache.insert(key)
        assert len(cache) == 5

    def test_reinsert_does_not_duplicate(self):
        cache = HCRAC(8, 2)
        cache.insert(1)
        cache.insert(1)
        assert len(cache) == 1

    def test_clear(self):
        cache = HCRAC(8, 2)
        for key in range(8):
            cache.insert(key)
        cache.clear()
        assert len(cache) == 0


class TestLRU:
    def test_lru_eviction_within_set(self):
        cache = HCRAC(entries=4, associativity=2)  # 2 sets
        # Keys 0, 2, 4 share set 0 (key & 1 == 0).
        cache.insert(0)
        cache.insert(2)
        cache.insert(4)  # evicts key 0 (LRU)
        assert not cache.lookup(0, touch=False)
        assert cache.lookup(2, touch=False)
        assert cache.lookup(4, touch=False)

    def test_lookup_refreshes_lru(self):
        cache = HCRAC(entries=4, associativity=2)
        cache.insert(0)
        cache.insert(2)
        cache.lookup(0)      # 0 becomes MRU
        cache.insert(4)      # evicts 2, not 0
        assert cache.lookup(0, touch=False)
        assert not cache.lookup(2, touch=False)

    def test_evicted_key_misses(self):
        cache = HCRAC(entries=2, associativity=2)
        for key in range(3):
            cache.insert(key * 2)  # all map to set 0
        assert len(cache) == 2
        assert not cache.lookup(0, touch=False)


class TestInvalidation:
    def test_invalidate_entry(self):
        cache = HCRAC(entries=4, associativity=2)
        cache.insert(0)
        # Key 0 -> set 0; find which way holds it by sweeping both.
        cleared = any(cache.invalidate_entry(e) for e in (0, 1))
        assert cleared
        assert not cache.lookup(0, touch=False)

    def test_invalidate_empty_entry_returns_false(self):
        cache = HCRAC(4, 2)
        assert not cache.invalidate_entry(0)

    def test_invalidate_out_of_range(self):
        cache = HCRAC(4, 2)
        with pytest.raises(IndexError):
            cache.invalidate_entry(4)


class TestProperties:
    @given(st.lists(st.integers(0, 1000), max_size=200))
    @settings(max_examples=100)
    def test_capacity_never_exceeded(self, keys):
        cache = HCRAC(entries=16, associativity=4)
        for key in keys:
            cache.insert(key)
            assert len(cache) <= 16

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_most_recent_insert_always_present(self, keys):
        cache = HCRAC(entries=8, associativity=2)
        for key in keys:
            cache.insert(key)
            assert cache.lookup(key, touch=False)

    @given(st.lists(st.integers(0, 100), max_size=100),
           st.integers(0, 100))
    @settings(max_examples=100)
    def test_lookup_matches_reference_model(self, keys, probe):
        """HCRAC agrees with a brute-force per-set LRU model."""
        assoc = 2
        cache = HCRAC(entries=8, associativity=assoc)
        sets = {}
        for key in keys:
            set_idx = key & (cache.num_sets - 1)
            lru = sets.setdefault(set_idx, [])
            if key in lru:
                lru.remove(key)
            elif len(lru) == assoc:
                lru.pop(0)
            lru.append(key)
            cache.insert(key)
        probe_set = probe & (cache.num_sets - 1)
        expected = probe in sets.get(probe_set, [])
        assert cache.lookup(probe, touch=False) == expected


class TestUnbounded:
    def test_expiry_by_age(self):
        cache = UnboundedHCRAC(duration_cycles=100)
        cache.insert(1, cycle=0)
        assert cache.lookup(1, cycle=100)
        assert not cache.lookup(1, cycle=101)

    def test_lazy_expiry_drops_entry(self):
        cache = UnboundedHCRAC(100)
        cache.insert(1, 0)
        cache.lookup(1, 500)
        assert len(cache) == 0

    def test_no_capacity_evictions(self):
        cache = UnboundedHCRAC(10 ** 9)
        for key in range(10_000):
            cache.insert(key, 0)
        assert len(cache) == 10_000
        assert all(cache.lookup(key, 0) for key in range(10_000))

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            UnboundedHCRAC(0)
