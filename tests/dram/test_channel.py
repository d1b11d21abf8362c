"""Unit tests for channel-level timing (bus, turnaround, logging)."""

import pytest

from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600


@pytest.fixture
def channel():
    return Channel(DDR3_1600, num_ranks=1, num_banks=8, log_commands=True)


def open_row(channel, rank=0, bank=0, row=0, cycle=0):
    channel.issue_activate(rank, bank, row, cycle)
    return cycle + DDR3_1600.tRCD


class TestCommandBus:
    def test_one_command_per_cycle(self, channel):
        channel.issue_activate(0, 0, 0, 10)
        with pytest.raises(RuntimeError):
            channel.issue_activate(0, 1, 0, 10)

    def test_next_cycle_ok(self, channel):
        channel.issue_activate(0, 0, 0, 10)
        assert channel.can_issue(Command.ACT, 0, 1, 10 + DDR3_1600.tRRD)


class TestEarliest:
    def test_act_closed_bank_immediately(self, channel):
        assert channel.earliest(Command.ACT, 0, 0) == 0

    def test_read_gated_by_trcd(self, channel):
        ready = open_row(channel)
        assert channel.earliest(Command.RD, 0, 0) == ready

    def test_ccd_between_reads(self, channel):
        ready = open_row(channel)
        channel.issue_read(0, 0, ready)
        assert channel.earliest(Command.RD, 0, 0) == ready + DDR3_1600.tCCD

    def test_read_write_turnaround(self, channel):
        ready = open_row(channel)
        channel.issue_read(0, 0, ready)
        expect = ready + DDR3_1600.read_to_write
        assert channel.earliest(Command.WR, 0, 0) == expect

    def test_write_read_turnaround(self, channel):
        ready = open_row(channel)
        channel.issue_write(0, 0, ready)
        expect = ready + DDR3_1600.write_to_read
        assert channel.earliest(Command.RD, 0, 0) == expect

    def test_act_to_other_bank_gated_by_trrd(self, channel):
        channel.issue_activate(0, 0, 0, 0)
        assert channel.earliest(Command.ACT, 0, 1) == DDR3_1600.tRRD


class TestDataReturn:
    def test_read_latency(self, channel):
        ready = open_row(channel)
        done = channel.issue_read(0, 0, ready)
        assert done == ready + DDR3_1600.tCL + DDR3_1600.tBL

    def test_write_completion(self, channel):
        ready = open_row(channel)
        done = channel.issue_write(0, 0, ready)
        assert done == ready + DDR3_1600.tCWL + DDR3_1600.tBL


class TestReducedActivations:
    def test_reduced_act_logged(self, channel):
        reduced = DDR3_1600.reduced_by(4, 8)
        channel.issue_activate(0, 0, 0, 0, reduced)
        assert channel.command_log[0].reduced

    def test_reduced_act_allows_earlier_read(self, channel):
        reduced = DDR3_1600.reduced_by(4, 8)
        channel.issue_activate(0, 0, 0, 0, reduced)
        assert channel.earliest(Command.RD, 0, 0) == DDR3_1600.tRCD - 4

    def test_default_act_not_marked_reduced(self, channel):
        channel.issue_activate(0, 0, 0, 0)
        assert not channel.command_log[0].reduced


class TestRefresh:
    def test_refresh_blocks_rank(self, channel):
        channel.issue_refresh(0, 0)
        assert channel.earliest(Command.ACT, 0, 3) >= DDR3_1600.tRFC
        assert [c.command for c in channel.command_log] == [Command.REF]

    def test_refresh_with_open_bank_rejected(self, channel):
        channel.issue_activate(0, 0, 0, 0)
        with pytest.raises(RuntimeError):
            channel.issue_refresh(0, 10)


class TestStatistics:
    def test_counters(self, channel):
        ready = open_row(channel)
        channel.issue_read(0, 0, ready)
        channel.issue_write(0, 0, ready + DDR3_1600.read_to_write)
        pre_at = channel.earliest(Command.PRE, 0, 0)
        channel.issue_precharge(0, 0, pre_at)
        # The channel keeps no counters: the log records every command.
        assert [c.command for c in channel.command_log] == [
            Command.ACT, Command.RD, Command.WR, Command.PRE]

    def test_command_log_order(self, channel):
        ready = open_row(channel)
        channel.issue_read(0, 0, ready)
        cycles = [c.cycle for c in channel.command_log]
        assert cycles == sorted(cycles)


class TestRankSwitch:
    """tRTRS: a column command to another rank than the last one waits
    tRTRS after the *earlier* of the channel's two column gates
    (``min(next_rd, next_wr)``), maxed with the command's own gate."""

    @pytest.fixture
    def two_ranks(self):
        channel = Channel(DDR3_1600, num_ranks=2, num_banks=8)
        channel.issue_activate(0, 0, 0, 0)
        channel.issue_activate(1, 0, 0, DDR3_1600.tRRD)
        return channel, DDR3_1600.tRRD + DDR3_1600.tRCD

    def test_after_read_to_other_rank(self, two_ranks):
        channel, t = two_ranks
        channel.issue_read(0, 0, t)
        assert channel.last_col_rank == 0
        # Same rank: tCCD; WR: the read-to-write turnaround.
        assert channel.earliest(Command.RD, 0, 0) == t + DDR3_1600.tCCD
        assert channel.earliest(Command.WR, 0, 0) == \
            t + DDR3_1600.read_to_write
        # Other rank: tRTRS rides on next_rd (the earlier gate) for a
        # RD; a WR's own turnaround gate is later still.
        assert DDR3_1600.read_to_write > DDR3_1600.tCCD + DDR3_1600.tRTRS
        assert channel.earliest(Command.RD, 1, 0) == \
            t + DDR3_1600.tCCD + DDR3_1600.tRTRS
        assert channel.earliest(Command.WR, 1, 0) == \
            t + DDR3_1600.read_to_write

    def test_after_write_to_other_rank(self, two_ranks):
        channel, t = two_ranks
        channel.issue_write(1, 0, t)
        assert channel.last_col_rank == 1
        assert channel.earliest(Command.WR, 1, 0) == t + DDR3_1600.tCCD
        assert channel.earliest(Command.WR, 0, 0) == \
            t + DDR3_1600.tCCD + DDR3_1600.tRTRS
        assert DDR3_1600.write_to_read > DDR3_1600.tCCD + DDR3_1600.tRTRS
        assert channel.earliest(Command.RD, 0, 0) == \
            t + DDR3_1600.write_to_read


class TestColumnGateChecks:
    """``issue_read``/``issue_write`` check the channel's column gates
    as ``earliest`` models them (tCCD, the read/write turnarounds and
    tRTRS), not only the bank's: an early column command raises."""

    @pytest.mark.parametrize("first", (Command.RD, Command.WR),
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("second", (Command.RD, Command.WR),
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("target", ((0, 1), (1, 0)),
                             ids=("same-rank", "other-rank"))
    def test_early_column_command_raises(self, first, second, target):
        channel = Channel(DDR3_1600, num_ranks=2, num_banks=8)
        channel.issue_activate(0, 0, 0, 0)
        channel.issue_activate(0, 1, 0, DDR3_1600.tRRD)
        channel.issue_activate(1, 0, 0, 2 * DDR3_1600.tRRD)
        t = 2 * DDR3_1600.tRRD + DDR3_1600.tRCD   # every bank's tRCD met
        issue = {Command.RD: channel.issue_read,
                 Command.WR: channel.issue_write}
        issue[first](0, 0, t)
        rank, bank = target
        gate = channel.earliest(second, rank, bank)
        # The channel gate, not the bank's or the bus's, sets it.
        assert gate > t + 1
        assert channel.bank(rank, bank).next_rd <= t
        with pytest.raises(RuntimeError, match="tCCD/"):
            issue[second](rank, bank, gate - 1)
        issue[second](rank, bank, gate)
