"""Unit tests for the per-bank state, driven through the channel.

A bank's registers change only in ``Channel.issue_*`` (and a refresh),
so each case issues commands on a one-rank channel and reads the bank.
"""

import pytest

from repro.dram.channel import Channel
from repro.dram.timing import DDR3_1600


@pytest.fixture
def channel():
    return Channel(DDR3_1600, num_ranks=1, num_banks=8)


@pytest.fixture
def bank(channel):
    return channel.bank(0, 0)


def activate(channel, row, cycle, timings=None):
    channel.issue_activate(0, 0, row, cycle, timings)


class TestActivation:
    def test_initially_closed(self, bank):
        assert bank.open_row is None

    def test_activate_opens_row(self, channel, bank):
        activate(channel, 42, 0)
        assert bank.open_row == 42

    def test_activate_sets_trcd_gate(self, channel, bank):
        activate(channel, 1, 100)
        assert bank.next_rd == 100 + DDR3_1600.tRCD
        assert bank.next_wr == 100 + DDR3_1600.tRCD

    def test_activate_sets_tras_gate(self, channel, bank):
        activate(channel, 1, 100)
        assert bank.next_pre == 100 + DDR3_1600.tRAS

    def test_reduced_activation_lowers_gates(self, channel, bank):
        activate(channel, 1, 100, DDR3_1600.reduced_by(4, 8))
        assert bank.next_rd == 100 + DDR3_1600.tRCD - 4
        assert bank.next_pre == 100 + DDR3_1600.tRAS - 8
        assert bank.act_reduced

    def test_double_activate_rejected(self, channel):
        activate(channel, 1, 0)
        with pytest.raises(RuntimeError, match="ACT to open bank"):
            activate(channel, 2, 100)

    def test_early_activate_rejected(self, channel):
        activate(channel, 1, 0)
        channel.issue_precharge(0, 0, DDR3_1600.tRAS)
        with pytest.raises(RuntimeError, match="violates tRP"):
            activate(channel, 2, DDR3_1600.tRAS + 1)

    def test_act_reduced_marks_the_last_activation(self, channel, bank):
        activate(channel, 1, 0, DDR3_1600.reduced_by(4, 8))
        assert bank.act_reduced
        channel.issue_precharge(0, 0, DDR3_1600.tRAS)
        activate(channel, 2, DDR3_1600.tRAS + DDR3_1600.tRP)
        assert not bank.act_reduced


class TestColumnCommands:
    def test_read_before_trcd_rejected(self, channel):
        activate(channel, 1, 0)
        with pytest.raises(RuntimeError, match="violates tRCD"):
            channel.issue_read(0, 0, DDR3_1600.tRCD - 1)

    def test_read_at_trcd_ok(self, channel):
        activate(channel, 1, 0)
        channel.issue_read(0, 0, DDR3_1600.tRCD)

    def test_read_extends_pre_gate(self, channel, bank):
        activate(channel, 1, 0)
        late = DDR3_1600.tRAS  # read issued very late
        channel.issue_read(0, 0, late)
        assert bank.next_pre == late + DDR3_1600.read_to_pre

    def test_write_extends_pre_gate_more(self, channel, bank):
        activate(channel, 1, 0)
        channel.issue_write(0, 0, DDR3_1600.tRCD)
        expected = DDR3_1600.tRCD + DDR3_1600.write_to_pre
        assert bank.next_pre == max(expected, DDR3_1600.tRAS)

    def test_column_to_closed_bank_rejected(self, channel):
        with pytest.raises(RuntimeError, match="RD to closed bank"):
            channel.issue_read(0, 0, 100)
        with pytest.raises(RuntimeError, match="WR to closed bank"):
            channel.issue_write(0, 0, 100)


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, channel):
        activate(channel, 1, 0)
        with pytest.raises(RuntimeError, match="violates tRAS"):
            channel.issue_precharge(0, 0, DDR3_1600.tRAS - 1)

    def test_precharge_returns_row(self, channel, bank):
        activate(channel, 7, 0)
        assert channel.issue_precharge(0, 0, DDR3_1600.tRAS) == 7
        assert bank.open_row is None

    def test_precharge_sets_trp_gate(self, channel, bank):
        activate(channel, 1, 0)
        channel.issue_precharge(0, 0, DDR3_1600.tRAS)
        assert bank.earliest_act() == DDR3_1600.tRAS + DDR3_1600.tRP

    def test_trc_enforced_transitively(self, channel, bank):
        """ACT->PRE->ACT spacing is at least tRC = tRAS + tRP."""
        activate(channel, 1, 0)
        channel.issue_precharge(0, 0, DDR3_1600.tRAS)
        assert bank.earliest_act() >= DDR3_1600.tRC

    def test_precharge_closed_rejected(self, channel):
        with pytest.raises(RuntimeError, match="PRE to closed bank"):
            channel.issue_precharge(0, 0, 100)


class TestAccounting:
    def test_open_cycles_accumulate(self, channel, bank):
        activate(channel, 1, 0)
        channel.issue_precharge(0, 0, 30)
        assert bank.open_cycles == 30
        activate(channel, 2, 50)
        assert bank.active_cycles_until(60) == 40

    def test_refresh_block(self, bank):
        bank.do_refresh_block(500)
        assert bank.earliest_act() == 500

    def test_refresh_block_open_bank_rejected(self, channel, bank):
        activate(channel, 1, 0)
        with pytest.raises(RuntimeError):
            bank.do_refresh_block(500)
