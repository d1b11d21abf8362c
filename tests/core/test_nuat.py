"""Unit tests for the NUAT baseline mechanism."""

import pytest

from repro.config import NUATConfig
from repro.core.nuat import NUAT
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import DDR3_1600


@pytest.fixture
def refresh():
    return RefreshScheduler(DDR3_1600, num_ranks=1, rows_per_bank=64 * 1024)


@pytest.fixture
def nuat(refresh):
    return NUAT(DDR3_1600, NUATConfig(), refresh)


class TestBins:
    def test_five_bins(self, nuat):
        assert len(nuat._bins) == 5

    def test_bin_reductions_monotone(self, nuat):
        """Younger bins get equal-or-more aggressive timings."""
        previous = None
        for edge, timings in nuat._bins:
            if timings is None:
                continue
            if previous is not None:
                assert timings.trcd >= previous.trcd
                assert timings.tras >= previous.tras
            previous = timings

    def test_last_bin_is_default(self, nuat):
        edge, timings = nuat._bins[-1]
        assert timings is None
        assert edge == DDR3_1600.ms_to_cycles(64.0)


class TestActivation:
    def test_recently_refreshed_row_hits(self, nuat, refresh):
        refresh.on_refresh_issued(0, 1000)  # stamps group 0 (rows 0-7)
        timings = nuat.on_activate(0, 0, row=0, core_id=0, cycle=2000)
        assert timings is not None
        assert timings.trcd < DDR3_1600.tRCD
        assert nuat.hits == 1

    def test_old_row_misses(self, nuat, refresh):
        # Pre-seeded steady state: find a row with age near 64 ms.
        old_row = max(range(0, 1024, 8),
                      key=lambda r: refresh.row_refresh_age_cycles(0, r, 0))
        assert nuat.on_activate(0, 0, old_row, 0, 0) is None

    def test_hit_rate_near_bin_coverage(self, nuat, refresh):
        """With uniform refresh ages, the hit rate approximates the
        covered fraction of the 64 ms window (bins up to 48 ms)."""
        hits = 0
        total = 0
        for row in range(0, 64 * 1024, 32):
            total += 1
            if nuat.on_activate(0, 0, row, 0, 0) is not None:
                hits += 1
        assert hits / total == pytest.approx(48.0 / 64.0, abs=0.05)

    def test_every_reduced_bin_is_reached(self, nuat, refresh):
        returned = [nuat.on_activate(0, 0, row, 0, 0)
                    for row in range(0, 64 * 1024, 64)]
        # Bins (0-6, 6-16, 16-32, 32-48] should all be populated.
        reduced = [timings for _, timings in nuat._bins[:4]]
        assert all(any(got is timings for got in returned)
                   for timings in reduced)

    def test_activation_does_not_recharge(self, nuat, refresh):
        """NUAT tracks refresh only: activating a row does not make a
        later activation fast (that is ChargeCache's contribution)."""
        old_row = max(range(0, 1024, 8),
                      key=lambda r: refresh.row_refresh_age_cycles(0, r, 0))
        assert nuat.on_activate(0, 0, old_row, 0, 0) is None
        # "Activate" again shortly after: still a miss under NUAT.
        assert nuat.on_activate(0, 0, old_row, 0, 100) is None


class TestStats:
    def test_reset(self, nuat, refresh):
        refresh.on_refresh_issued(0, 0)
        nuat.on_activate(0, 0, 0, 0, 100)
        nuat.reset_stats()
        assert nuat.hits == 0
