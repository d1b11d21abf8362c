"""Unit tests for the refresh scheduler and refresh-age bookkeeping."""

import numpy as np
import pytest

from repro.dram.refresh import RefreshScheduler
from repro.dram.standards import PRESETS
from repro.dram.timing import DDR3_1600


@pytest.fixture
def sched():
    return RefreshScheduler(DDR3_1600, num_ranks=1, rows_per_bank=64 * 1024)


class TestScheduling:
    def test_first_refresh_due_at_trefi(self, sched):
        assert sched.next_due(0) == DDR3_1600.tREFI
        assert not sched.rank_needs_refresh(0, DDR3_1600.tREFI - 1)
        assert sched.rank_needs_refresh(0, DDR3_1600.tREFI)

    def test_refresh_advances_due(self, sched):
        sched.on_refresh_issued(0, DDR3_1600.tREFI)
        assert sched.next_due(0) == 2 * DDR3_1600.tREFI

    def test_disabled_never_due(self):
        sched = RefreshScheduler(DDR3_1600, 1, 64 * 1024, enabled=False)
        assert not sched.rank_needs_refresh(0, 10 ** 12)

    def test_each_refresh_advances_due(self, sched):
        sched.on_refresh_issued(0, 100)
        sched.on_refresh_issued(0, 200)
        assert sched.next_due(0) == 3 * DDR3_1600.tREFI


class TestGroups:
    def test_group_count_matches_standard(self, sched):
        assert sched.num_groups == 8192

    def test_rows_map_to_groups(self, sched):
        # Rows hash-scatter over the rotation (RefreshScheduler.row_group).
        assert sched.row_group(0) == 0
        assert sched.row_group(1) != sched.row_group(0)
        assert 0 <= sched.row_group(8) < sched.num_groups

    def test_rows_scatter_over_groups(self, sched):
        """Contiguous footprints see the full age distribution."""
        groups = {sched.row_group(row) for row in range(4096)}
        assert len(groups) > 3600  # near-distinct
        assert max(groups) > sched.num_groups // 2

    def test_refresh_stamps_next_group(self, sched):
        sched.on_refresh_issued(0, 12345)
        assert sched.row_refresh_age_cycles(0, 0, 12400) == 55

    def test_rotation_wraps(self, sched):
        for i in range(sched.num_groups + 1):
            sched.on_refresh_issued(0, i * DDR3_1600.tREFI)
        # Group 0 was refreshed twice; its stamp is the second visit.
        age = sched.row_refresh_age_cycles(
            0, 0, sched.num_groups * DDR3_1600.tREFI)
        assert age == 0


class TestSteadyStatePreseed:
    def test_initial_ages_span_window(self, sched):
        """At cycle 0, refresh ages are uniform over the 64 ms window."""
        ages = [sched.row_refresh_age_cycles(0, row, 0)
                for row in range(0, 64 * 1024, 64)]
        window = sched._window
        assert min(ages) >= 0
        assert max(ages) <= window
        # Roughly uniform: mean near window/2.
        assert abs(np.mean(ages) - window / 2) < window * 0.05

    def test_fraction_within_8ms_is_one_eighth(self, sched):
        """The paper's ~12% refresh-recency fraction falls out of the
        schedule geometry: 8 ms / 64 ms."""
        edge = DDR3_1600.ms_to_cycles(8.0)
        rows = range(0, 64 * 1024, 16)
        young = sum(1 for r in rows
                    if sched.row_refresh_age_cycles(0, r, 0) <= edge)
        fraction = young / len(list(rows))
        assert fraction == pytest.approx(0.125, abs=0.02)

    def test_age_in_ms(self, sched):
        age_ms = sched.row_refresh_age_cycles(0, 0, 0) \
            * sched.timing.tCK_ns / 1e6
        assert age_ms == pytest.approx(64.0, rel=0.01)


class TestMultiRank:
    def test_ranks_independent(self):
        sched = RefreshScheduler(DDR3_1600, num_ranks=2,
                                 rows_per_bank=64 * 1024)
        sched.on_refresh_issued(0, 500)
        assert sched.next_due(0) > sched.next_due(1)
        age0 = sched.row_refresh_age_cycles(0, 0, 1000)
        age1 = sched.row_refresh_age_cycles(1, 0, 1000)
        assert age0 != age1  # rank 0's group 0 was just refreshed


class TestSeededStamps:
    @staticmethod
    def _row_of_group(sched):
        """One row of every refresh group, ``{group: row}``."""
        rows = {}
        row = 0
        while len(rows) < sched.num_groups:
            rows.setdefault(sched.row_group(row), row)
            row += 1
        return rows

    @pytest.mark.parametrize("standard", sorted(PRESETS))
    def test_seed_is_steady_state_rotation(self, standard):
        """Group ``g`` was last refreshed at ``g * tREFI - window``: at
        cycle 0 each of its rows is ``window - g * tREFI`` cycles old,
        on every rank."""
        timing = PRESETS[standard]
        sched = RefreshScheduler(timing, num_ranks=2,
                                 rows_per_bank=64 * 1024)
        window = sched._window
        rows = self._row_of_group(sched)
        for rank in range(2):
            ages = [sched.row_refresh_age_cycles(rank, rows[g], 0)
                    for g in range(sched.num_groups)]
            assert ages == [window - g * timing.tREFI
                            for g in range(sched.num_groups)]

    @pytest.mark.parametrize("refs", (1, 5))
    def test_refreshed_groups_report_their_ref(self, refs):
        """After k REFs on rank 0, groups 0..k-1 report their REF
        cycles, group k still reports its seed, and rank 1 keeps its
        seed everywhere."""
        timing = DDR3_1600
        sched = RefreshScheduler(timing, num_ranks=2,
                                 rows_per_bank=64 * 1024)
        window = sched._window
        rows = self._row_of_group(sched)
        ref_cycles = [(k + 1) * timing.tREFI + 3 * k for k in range(refs)]
        for cycle in ref_cycles:
            sched.on_refresh_issued(0, cycle)
        now = ref_cycles[-1] + 100
        for group, cycle in enumerate(ref_cycles):
            assert sched.row_refresh_age_cycles(0, rows[group], now) \
                == now - cycle
        seed = refs * timing.tREFI - window
        assert sched.row_refresh_age_cycles(0, rows[refs], now) \
            == now - seed
        assert [sched.row_refresh_age_cycles(1, rows[g], now)
                for g in range(sched.num_groups)] \
            == [now - (g * timing.tREFI - window)
                for g in range(sched.num_groups)]
