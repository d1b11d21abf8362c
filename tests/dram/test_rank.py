"""Unit tests for rank-level constraints (tRRD, tFAW, refresh)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.rank import Rank
from repro.dram.standards import PRESETS
from repro.dram.timing import DDR3_1600


@pytest.fixture
def rank():
    return Rank(DDR3_1600, num_banks=8)


class TestTRRD:
    def test_record_act_sets_trrd(self, rank):
        rank.record_act(100)
        assert rank.earliest_act() == 100 + DDR3_1600.tRRD

    def test_acts_spaced_by_trrd_ok(self, rank):
        t = 0
        for _ in range(3):
            assert rank.earliest_act() <= t
            rank.record_act(t)
            t += DDR3_1600.tRRD


class TestTFAW:
    def test_fifth_act_waits_for_faw(self, rank):
        # Four ACTs packed at tRRD spacing...
        cycles = [i * DDR3_1600.tRRD for i in range(4)]
        for c in cycles:
            rank.record_act(c)
        # ...the fifth must wait until the first leaves the window.
        assert rank.earliest_act() == cycles[0] + DDR3_1600.tFAW

    def test_faw_window_slides(self, rank):
        for c in (0, 10, 20, 30):
            rank.record_act(c)
        fifth = rank.earliest_act()  # max(0 + tFAW, 30 + tRRD) = 35
        assert fifth == max(DDR3_1600.tFAW, 30 + DDR3_1600.tRRD)
        rank.record_act(fifth)       # window is now 10, 20, 30, 35
        assert rank.earliest_act() == max(10 + DDR3_1600.tFAW,
                                          fifth + DDR3_1600.tRRD)


class TestRefresh:
    def test_refresh_requires_closed_banks(self, rank):
        rank.banks[0].do_activate(1, 0, DDR3_1600.default_timings())
        rank.note_bank_opened(0)
        with pytest.raises(RuntimeError):
            rank.do_refresh(100)

    def test_refresh_blocks_activations(self, rank):
        rank.do_refresh(100)
        assert rank.earliest_act() >= 100 + DDR3_1600.tRFC
        for bank in rank.banks:
            assert bank.earliest_act() >= 100 + DDR3_1600.tRFC

    def test_earliest_refresh_waits_for_trp(self, rank):
        bank = rank.banks[0]
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        rank.note_bank_opened(0)
        bank.do_precharge(DDR3_1600.tRAS)
        rank.note_bank_closed(DDR3_1600.tRAS)
        assert rank.earliest_refresh() == DDR3_1600.tRAS + DDR3_1600.tRP

    def test_each_refresh_moves_the_act_gate(self, rank):
        rank.do_refresh(0)
        rank.do_refresh(DDR3_1600.tREFI)
        assert rank.earliest_act() == DDR3_1600.tREFI + DDR3_1600.tRFC


class TestActiveStandbyAccounting:
    def test_any_open_tracks_union_not_sum(self, rank):
        rank.note_bank_opened(100)
        rank.note_bank_opened(110)   # second bank overlaps
        rank.note_bank_closed(150)
        rank.note_bank_closed(200)
        assert rank.any_open_cycles == 100  # 100..200, not 140

    def test_any_open_until_includes_current(self, rank):
        rank.note_bank_opened(10)
        assert rank.any_open_until(60) == 50

    def test_unbalanced_close_rejected(self, rank):
        with pytest.raises(RuntimeError):
            rank.note_bank_closed(0)


class TestMaintainedActGate:
    """``Rank.act_gate`` is a maintained field: after every
    ``record_act`` and ``do_refresh`` it must equal the from-scratch
    formula ``max(next_act, 4th-last ACT + tFAW, refresh_busy_until)``,
    on every timing grade."""

    @pytest.mark.parametrize("standard", sorted(PRESETS))
    @given(ops=st.lists(st.tuples(
        st.sampled_from(("act", "act", "act", "ref")),
        # Short gaps pack four ACTs into one tFAW window; long ones
        # outlast tRFC.
        st.one_of(st.integers(0, 12), st.integers(0, 600))), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_act_gate_matches_formula(self, standard, ops):
        timing = PRESETS[standard]
        rank = Rank(timing, num_banks=8)
        acts = []
        busy_until = 0

        def formula():
            gate = max([a + timing.tRRD for a in acts], default=0)
            if len(acts) >= 4:
                gate = max(gate, acts[-4] + timing.tFAW)
            return max(gate, busy_until)

        assert rank.act_gate == formula() == 0
        cycle = 0
        for kind, gap in ops:
            cycle += gap
            if kind == "act":
                rank.record_act(cycle)
                acts.append(cycle)
            else:
                rank.do_refresh(cycle)
                busy_until = cycle + timing.tRFC
            assert rank.act_gate == formula(), (kind, cycle)
            assert rank.earliest_act() == rank.act_gate
