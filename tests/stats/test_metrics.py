"""Unit tests for evaluation metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.stats.metrics import (
    ipc,
    rmpkc,
    speedup,
    weighted_speedup,
)


class TestIPC:
    def test_basic(self):
        assert ipc(300, 100) == 3.0

    def test_zero_cycles(self):
        assert ipc(100, 0) == 0.0


class TestWeightedSpeedup:
    def test_equal_ipcs_give_core_count(self):
        assert weighted_speedup([1.0] * 8, [1.0] * 8) == pytest.approx(8.0)

    def test_slowdown_reduces_ws(self):
        ws = weighted_speedup([0.5, 0.5], [1.0, 1.0])
        assert ws == pytest.approx(1.0)

    def test_zero_alone_contributes_zero(self):
        assert weighted_speedup([1.0], [0.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=8))
    def test_shared_equals_alone_gives_n(self, ipcs):
        assert weighted_speedup(ipcs, ipcs) == pytest.approx(len(ipcs))


class TestSpeedup:
    def test_improvement(self):
        assert speedup(1.1, 1.0) == pytest.approx(0.1)

    def test_regression(self):
        assert speedup(0.9, 1.0) == pytest.approx(-0.1)

    def test_zero_base(self):
        assert speedup(1.0, 0.0) == 0.0


class TestRMPKC:
    def test_basic(self):
        assert rmpkc(50, 10_000) == pytest.approx(5.0)

    def test_zero_cycles(self):
        assert rmpkc(50, 0) == 0.0
