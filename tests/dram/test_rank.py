"""Unit tests for rank-level constraints (tRRD, tFAW, refresh).

A rank's ACT window and open-bank accounting change in
``Channel.issue_activate``/``issue_precharge``, so the cases issue
commands on a one-rank channel; REF is applied with ``Rank.do_refresh``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.standards import PRESETS
from repro.dram.timing import DDR3_1600


@pytest.fixture
def channel():
    return Channel(DDR3_1600, num_ranks=1, num_banks=8)


@pytest.fixture
def rank(channel):
    return channel.ranks[0]


class TestTRRD:
    def test_record_act_sets_trrd(self, channel, rank):
        channel.issue_activate(0, 0, 0, 100)
        assert rank.earliest_act() == 100 + DDR3_1600.tRRD

    def test_acts_spaced_by_trrd_ok(self, channel, rank):
        t = 0
        for bank in range(3):
            assert rank.earliest_act() <= t
            channel.issue_activate(0, bank, 0, t)
            t += DDR3_1600.tRRD


class TestTFAW:
    def test_fifth_act_waits_for_faw(self, channel, rank):
        # Four ACTs packed at tRRD spacing...
        cycles = [i * DDR3_1600.tRRD for i in range(4)]
        for bank, c in enumerate(cycles):
            channel.issue_activate(0, bank, 0, c)
        # ...the fifth must wait until the first leaves the window.
        assert rank.earliest_act() == cycles[0] + DDR3_1600.tFAW
        with pytest.raises(RuntimeError, match="tRRD/tFAW"):
            channel.issue_activate(0, 4, 0, rank.earliest_act() - 1)

    def test_faw_window_slides(self, channel, rank):
        for bank, c in enumerate((0, 10, 20, 30)):
            channel.issue_activate(0, bank, 0, c)
        fifth = rank.earliest_act()  # max(0 + tFAW, 30 + tRRD) = 35
        assert fifth == max(DDR3_1600.tFAW, 30 + DDR3_1600.tRRD)
        channel.issue_activate(0, 4, 0, fifth)  # window: 10, 20, 30, 35
        assert rank.earliest_act() == max(10 + DDR3_1600.tFAW,
                                          fifth + DDR3_1600.tRRD)


class TestRefresh:
    def test_refresh_requires_closed_banks(self, channel, rank):
        channel.issue_activate(0, 0, 1, 0)
        with pytest.raises(RuntimeError):
            rank.do_refresh(100)

    def test_refresh_blocks_activations(self, rank):
        rank.do_refresh(100)
        assert rank.earliest_act() >= 100 + DDR3_1600.tRFC
        for bank in rank.banks:
            assert bank.earliest_act() >= 100 + DDR3_1600.tRFC

    def test_earliest_refresh_waits_for_trp(self, channel, rank):
        channel.issue_activate(0, 0, 1, 0)
        channel.issue_precharge(0, 0, DDR3_1600.tRAS)
        assert rank.earliest_refresh() == DDR3_1600.tRAS + DDR3_1600.tRP

    def test_each_refresh_moves_the_act_gate(self, rank):
        rank.do_refresh(0)
        rank.do_refresh(DDR3_1600.tREFI)
        assert rank.earliest_act() == DDR3_1600.tREFI + DDR3_1600.tRFC


class TestActiveStandbyAccounting:
    def test_any_open_tracks_union_not_sum(self, channel, rank):
        channel.issue_activate(0, 0, 1, 100)
        channel.issue_activate(0, 1, 1, 110)   # second bank overlaps
        channel.issue_precharge(0, 0, 150)
        channel.issue_precharge(0, 1, 200)
        assert rank.any_open_cycles == 100  # 100..200, not 140

    def test_any_open_until_includes_current(self, channel, rank):
        channel.issue_activate(0, 0, 1, 10)
        assert rank.any_open_until(60) == 50

    def test_unbalanced_close_rejected(self, channel, rank):
        with pytest.raises(RuntimeError, match="PRE to closed bank"):
            channel.issue_precharge(0, 0, 0)
        assert rank.open_banks == 0
        assert rank.any_open_cycles == 0


class TestMaintainedActGate:
    """``Rank.act_gate`` is a maintained field: after every ACT that
    ``Channel.issue_activate`` applies and every ``do_refresh`` it must
    equal the from-scratch formula ``max(next_act, 4th-last ACT + tFAW,
    refresh_busy_until)``, on every timing grade."""

    @pytest.mark.parametrize("standard", sorted(PRESETS))
    @given(ops=st.lists(st.tuples(
        st.sampled_from(("act", "act", "act", "ref")),
        # Short gaps pack four ACTs into one tFAW window; long ones
        # outlast tRFC.
        st.one_of(st.integers(0, 12), st.integers(0, 600))), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_act_gate_matches_formula(self, standard, ops):
        timing = PRESETS[standard]
        channel = Channel(timing, num_ranks=1, num_banks=8)
        rank = channel.ranks[0]
        acts = []
        busy_until = 0

        def formula():
            gate = max([a + timing.tRRD for a in acts], default=0)
            if len(acts) >= 4:
                gate = max(gate, acts[-4] + timing.tFAW)
            return max(gate, busy_until)

        def close(bank, cycle):
            """PRE ``bank`` at its first legal cycle from ``cycle``."""
            cycle = max(cycle, channel.earliest(Command.PRE, 0, bank))
            channel.issue_precharge(0, bank, cycle)
            return cycle + 1

        assert rank.act_gate == formula() == 0
        cycle = 0
        for kind, gap in ops:
            cycle += gap
            if kind == "act":
                # Banks in turn; an open one is closed first.
                bank = len(acts) % len(rank.banks)
                if rank.banks[bank].open_row is not None:
                    cycle = close(bank, cycle)
                cycle = max(cycle, channel.earliest(Command.ACT, 0, bank))
                channel.issue_activate(0, bank, 0, cycle)
                acts.append(cycle)
            else:
                for bank, bk in enumerate(rank.banks):
                    if bk.open_row is not None:
                        cycle = close(bank, cycle)
                cycle = max(cycle, channel.earliest(Command.REF, 0, 0))
                channel.issue_refresh(0, cycle)
                busy_until = cycle + timing.tRFC
            assert rank.act_gate == formula(), (kind, cycle)
            assert rank.earliest_act() == rank.act_gate
