"""Tests for the row-reuse-distance profiler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.reuse import RowReuseProfiler


def activate_rows(profiler, rows):
    distances = []
    for row in rows:
        distances.append(profiler.on_activate(0, 0, 0, row))
    return distances


class TestStackDistance:
    def test_cold_activations(self):
        p = RowReuseProfiler()
        assert activate_rows(p, [1, 2, 3]) == [None, None, None]
        assert p.cold == 3
        assert len(p._stack) == 3

    def test_immediate_reuse_is_distance_zero(self):
        p = RowReuseProfiler()
        assert activate_rows(p, [5, 5]) == [None, 0]

    def test_interleaved_distance(self):
        p = RowReuseProfiler()
        # 1, 2, 3, then 1 again: two distinct rows in between.
        assert activate_rows(p, [1, 2, 3, 1]) == [None, None, None, 2]

    def test_banks_are_distinct_rows(self):
        p = RowReuseProfiler()
        p.on_activate(0, 0, 0, 7)
        assert p.on_activate(0, 0, 1, 7) is None  # other bank

    def test_histogram(self):
        p = RowReuseProfiler()
        activate_rows(p, [1, 2, 1, 2, 1])
        assert p.histogram == {1: 3}


class TestHitRatePrediction:
    def test_lru_inclusion(self):
        """Bigger capacity never predicts a lower hit rate."""
        p = RowReuseProfiler()
        activate_rows(p, [1, 2, 3, 1, 4, 2, 5, 1, 2, 3])
        rates = [p.predicted_hit_rate(c) for c in (1, 2, 4, 8)]
        assert rates == sorted(rates)

    def test_prediction_matches_direct_lru(self):
        """Prediction equals an actual fully-associative LRU table."""
        import numpy as np
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 30, size=500)
        p = RowReuseProfiler()
        capacity = 8
        # Direct simulation of an LRU table of `capacity` rows.
        from collections import OrderedDict
        table = OrderedDict()
        hits = 0
        for row in rows:
            key = int(row)
            p.on_activate(0, 0, 0, key)
            if key in table:
                hits += 1
                table.move_to_end(key)
            else:
                if len(table) >= capacity:
                    table.popitem(last=False)
                table[key] = None
        assert p.predicted_hit_rate(capacity) == \
            pytest.approx(hits / len(rows))

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RowReuseProfiler().predicted_hit_rate(0)

    def test_empty_profiler(self):
        assert RowReuseProfiler().predicted_hit_rate(8) == 0.0


class TestStatistics:
    def test_median(self):
        p = RowReuseProfiler()
        activate_rows(p, [1, 2, 1, 2, 3, 1])
        # Distances: 1 (row1), 1 (row2), 2 (row1) -> median 1.
        assert p.median_reuse_distance() == 1

    def test_median_none_when_cold_only(self):
        p = RowReuseProfiler()
        activate_rows(p, [1, 2, 3])
        assert p.median_reuse_distance() is None

    def test_reset(self):
        p = RowReuseProfiler()
        activate_rows(p, [1, 1])
        p.reset()
        assert p.activations == 0
        assert p.predicted_hit_rate(4) == 0.0

    @given(st.lists(st.integers(0, 20), max_size=300))
    @settings(max_examples=60)
    def test_accounting_consistent(self, rows):
        p = RowReuseProfiler()
        activate_rows(p, rows)
        assert p.activations == len(rows)
        assert p.cold == len(p._stack)
        assert p.cold + sum(p.histogram.values()) == p.activations
