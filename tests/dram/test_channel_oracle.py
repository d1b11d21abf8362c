"""Differential test: one-frame ``Channel.issue_*`` against the helper
chain.

``Channel.issue_activate``/``issue_precharge``/``issue_read``/
``issue_write``/``issue_refresh`` check and apply each command in one
frame.  The reference below keeps the earlier formulation verbatim as an
oracle: the channel claims the bus in ``_claim_cmd_bus`` and delegates
to ``Bank.do_activate``/``do_read``/``do_write``/``do_precharge``,
``Rank.record_act`` and ``Rank.note_bank_opened``/``note_bank_closed``.
Its one addition is the channel column-gate check of ``issue_read``/
``issue_write`` (tCCD and the read/write turnarounds, as
``Channel.earliest`` models them), which the helper chain lacked.

Hypothesis drives both channels with identical random command streams
on one or two ranks, every timing grade and default or reduced ACT
timings.  Cycles are drawn at, near or past each command's earliest
cycle, so the streams mix legal and illegal commands.  After every
command the two must agree on the raised exception type or, when both
accept it, on every bank, rank and channel register, the open-cycle
accounting and the command log.  A rejected command must leave the
one-frame channel unchanged; the helper chain claimed the bus before its
checks, so the reference's bus register is restored before the states
are compared and the stream goes on.
"""

from __future__ import annotations

from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.dram.channel import Channel
from repro.dram.commands import Command, IssuedCommand
from repro.dram.standards import PRESETS
from repro.dram.timing import ReducedTimings, TimingParameters


class ReferenceBank:
    """The bank with its ``do_*`` command helpers."""

    def __init__(self, timing: TimingParameters):
        self.timing = timing
        self.open_row: Optional[int] = None
        self.next_act = 0
        self.next_pre = 0
        self.next_rd = 0
        self.next_wr = 0
        self.act_reduced = False
        self.last_open_at = 0
        self.open_cycles = 0

    def earliest_act(self) -> int:
        if self.open_row is not None:
            raise RuntimeError("ACT issued to an open bank; PRE required first")
        return self.next_act

    def do_activate(self, row: int, cycle: int,
                    timings: ReducedTimings) -> None:
        if self.open_row is not None:
            raise RuntimeError(
                f"ACT to open bank (row {self.open_row}) at cycle {cycle}")
        if cycle < self.next_act:
            raise RuntimeError(
                f"ACT at {cycle} violates tRP/tRFC (earliest {self.next_act})")
        self.open_row = row
        self.last_open_at = cycle
        self.act_reduced = (timings.trcd < self.timing.tRCD
                            or timings.tras < self.timing.tRAS)
        self.next_rd = cycle + timings.trcd
        self.next_wr = cycle + timings.trcd
        self.next_pre = max(self.next_pre, cycle + timings.tras)

    def do_read(self, cycle: int) -> None:
        if self.open_row is None:
            raise RuntimeError(f"RD to closed bank at cycle {cycle}")
        if cycle < self.next_rd:
            raise RuntimeError(
                f"RD at {cycle} violates tRCD/tCCD (earliest {self.next_rd})")
        self.next_pre = max(self.next_pre, cycle + self.timing.read_to_pre)

    def do_write(self, cycle: int) -> None:
        if self.open_row is None:
            raise RuntimeError(f"WR to closed bank at cycle {cycle}")
        if cycle < self.next_wr:
            raise RuntimeError(
                f"WR at {cycle} violates tRCD/tCCD (earliest {self.next_wr})")
        self.next_pre = max(self.next_pre, cycle + self.timing.write_to_pre)

    def do_precharge(self, cycle: int) -> int:
        if self.open_row is None:
            raise RuntimeError(f"PRE to closed bank at cycle {cycle}")
        if cycle < self.next_pre:
            raise RuntimeError(
                f"PRE at {cycle} violates tRAS/tRTP/tWR (earliest {self.next_pre})")
        row = self.open_row
        self.open_row = None
        self.open_cycles += cycle - self.last_open_at
        self.next_act = max(self.next_act, cycle + self.timing.tRP)
        return row

    def do_refresh_block(self, until_cycle: int) -> None:
        if self.open_row is not None:
            raise RuntimeError("REF issued while a bank row is open")
        self.next_act = max(self.next_act, until_cycle)

    def active_cycles_until(self, cycle: int) -> int:
        total = self.open_cycles
        if self.open_row is not None:
            total += max(0, cycle - self.last_open_at)
        return total


class ReferenceRank:
    """The rank with ``record_act`` and ``note_bank_opened/closed``."""

    def __init__(self, timing: TimingParameters, num_banks: int):
        self.timing = timing
        self.banks: List[ReferenceBank] = [ReferenceBank(timing)
                                           for _ in range(num_banks)]
        self.next_act = 0
        self._act_history: List[int] = []
        self.refresh_busy_until = 0
        self.act_gate = 0
        self.open_banks = 0
        self.any_open_since = 0
        self.any_open_cycles = 0

    def record_act(self, cycle: int) -> None:
        self.next_act = max(self.next_act, cycle + self.timing.tRRD)
        self._act_history.append(cycle)
        if len(self._act_history) > 4:
            del self._act_history[0]
        self._update_act_gate()

    def _update_act_gate(self) -> None:
        gate = self.next_act
        if len(self._act_history) == 4:
            faw_gate = self._act_history[0] + self.timing.tFAW
            if faw_gate > gate:
                gate = faw_gate
        if self.refresh_busy_until > gate:
            gate = self.refresh_busy_until
        self.act_gate = gate

    def all_banks_closed(self) -> bool:
        for bank in self.banks:
            if bank.open_row is not None:
                return False
        return True

    def earliest_refresh(self) -> int:
        if not self.all_banks_closed():
            raise RuntimeError("REF requires all banks precharged")
        earliest = self.refresh_busy_until
        for bank in self.banks:
            if bank.next_act > earliest:
                earliest = bank.next_act
        return earliest

    def do_refresh(self, cycle: int) -> None:
        if not self.all_banks_closed():
            raise RuntimeError("REF issued with an open bank")
        done = cycle + self.timing.tRFC
        self.refresh_busy_until = done
        self._update_act_gate()
        for bank in self.banks:
            bank.do_refresh_block(done)

    def note_bank_opened(self, cycle: int) -> None:
        if self.open_banks == 0:
            self.any_open_since = cycle
        self.open_banks += 1

    def note_bank_closed(self, cycle: int) -> None:
        if self.open_banks <= 0:
            raise RuntimeError("bank-close without matching open")
        self.open_banks -= 1
        if self.open_banks == 0:
            self.any_open_cycles += cycle - self.any_open_since

    def any_open_until(self, cycle: int) -> int:
        total = self.any_open_cycles
        if self.open_banks:
            total += max(0, cycle - self.any_open_since)
        return total

    def active_cycles_until(self, cycle: int) -> int:
        return sum(bank.active_cycles_until(cycle) for bank in self.banks)


class ReferenceChannel(Channel):
    """The channel delegating each command to the bank and rank helpers
    (``earliest`` and the accounting sums are inherited unchanged)."""

    __slots__ = ()

    def __init__(self, timing: TimingParameters, num_ranks: int,
                 num_banks: int):
        super().__init__(timing, num_ranks, num_banks, log_commands=True)
        self.ranks = [ReferenceRank(timing, num_banks)
                      for _ in range(num_ranks)]

    def _column_gate(self, command: Command, cycle: int) -> None:
        """The channel column gate the one-frame path adds."""
        gate = self.next_rd if command is Command.RD else self.next_wr
        if cycle < gate:
            raise RuntimeError(f"{command.name} before the column gate")

    def issue_activate(self, rank, bank, row, cycle, timings=None):
        if timings is None:
            timings = self._default_act
        self._claim_cmd_bus(cycle)
        rk = self.ranks[rank]
        if cycle < rk.act_gate:
            raise RuntimeError(
                f"ACT at {cycle} violates tRRD/tFAW/tRFC "
                f"(earliest {rk.act_gate})")
        rk.banks[bank].do_activate(row, cycle, timings)
        rk.record_act(cycle)
        rk.note_bank_opened(cycle)
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.ACT, cycle, self.index, rank, bank, row,
                reduced=rk.banks[bank].act_reduced))

    def issue_precharge(self, rank, bank, cycle):
        self._claim_cmd_bus(cycle)
        row = self.ranks[rank].banks[bank].do_precharge(cycle)
        self.ranks[rank].note_bank_closed(cycle)
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.PRE, cycle, self.index, rank, bank, row))
        return row

    def issue_read(self, rank, bank, cycle):
        self._claim_cmd_bus(cycle)
        self._column_gate(Command.RD, cycle)
        t = self.timing
        self.ranks[rank].banks[bank].do_read(cycle)
        gate = cycle + t.tCCD
        if gate > self.next_rd:
            self.next_rd = gate
        gate = cycle + self._rd_to_wr
        if gate > self.next_wr:
            self.next_wr = gate
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.RD, cycle, self.index, rank, bank))
        return cycle + self._rd_done

    def issue_write(self, rank, bank, cycle):
        self._claim_cmd_bus(cycle)
        self._column_gate(Command.WR, cycle)
        t = self.timing
        self.ranks[rank].banks[bank].do_write(cycle)
        gate = cycle + t.tCCD
        if gate > self.next_wr:
            self.next_wr = gate
        gate = cycle + self._wr_to_rd
        if gate > self.next_rd:
            self.next_rd = gate
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.WR, cycle, self.index, rank, bank))
        return cycle + self._wr_done

    def issue_refresh(self, rank, cycle):
        self._claim_cmd_bus(cycle)
        self.ranks[rank].do_refresh(cycle)
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.REF, cycle, self.index, rank))

    def _claim_cmd_bus(self, cycle):
        if cycle < self.next_cmd:
            raise RuntimeError(
                f"command bus busy until {self.next_cmd}, issue at {cycle}")
        self.next_cmd = cycle + 1


BANK_FIELDS = ("open_row", "next_act", "next_pre", "next_rd", "next_wr",
               "act_reduced", "last_open_at", "open_cycles")
RANK_FIELDS = ("next_act", "refresh_busy_until", "act_gate", "open_banks",
               "any_open_since", "any_open_cycles")
CHANNEL_FIELDS = ("next_cmd", "next_rd", "next_wr")


def state(channel, cycle: int) -> dict:
    """Every register and accounting value of ``channel`` at ``cycle``
    (the command log by its length and last entry)."""
    ranks = []
    for rk in channel.ranks:
        history = rk._act_history if isinstance(rk, ReferenceRank) \
            else rk.act_history
        ranks.append((
            [getattr(rk, name) for name in RANK_FIELDS], list(history),
            rk.any_open_until(cycle), rk.active_cycles_until(cycle),
            [[getattr(bk, name) for name in BANK_FIELDS]
             for bk in rk.banks]))
    return {"channel": [getattr(channel, name) for name in CHANNEL_FIELDS],
            "ranks": ranks,
            "open": channel.active_cycles_until(cycle),
            "rank_open": channel.rank_active_cycles_until(cycle),
            "log": (len(channel.command_log), channel.command_log[-1:])}


def apply(channel, kind, rank, bank, row, cycle, timings):
    """Issue one command; returns (result, exception type or None)."""
    try:
        if kind is Command.ACT:
            result = channel.issue_activate(rank, bank, row, cycle, timings)
        elif kind is Command.PRE:
            result = channel.issue_precharge(rank, bank, cycle)
        elif kind is Command.RD:
            result = channel.issue_read(rank, bank, cycle)
        elif kind is Command.WR:
            result = channel.issue_write(rank, bank, cycle)
        else:
            result = channel.issue_refresh(rank, cycle)
    except RuntimeError as exc:
        return None, type(exc)
    return result, None


commands = st.lists(st.tuples(
    st.sampled_from((Command.ACT, Command.ACT, Command.PRE, Command.RD,
                     Command.RD, Command.WR, Command.REF)),
    st.integers(0, 1),          # rank (folded onto the channel's ranks)
    st.integers(0, 3),          # bank (folded onto the rank's banks)
    st.integers(0, 3),          # row
    # Cycle: at the earliest, just before or after it, or a gap past
    # the last command (which may be early or late).
    st.one_of(st.just(("at", 0)),
              st.tuples(st.just("near"), st.integers(-3, 3)),
              st.tuples(st.just("gap"), st.integers(0, 80))),
    st.sampled_from((None, None, (4, 8), (2, 3), (30, 60)))),
    min_size=20, max_size=60)


@given(standard=st.sampled_from(sorted(PRESETS)),
       num_ranks=st.integers(1, 2), num_banks=st.integers(1, 4),
       stream=commands)
@settings(max_examples=150, deadline=None)
def test_one_frame_issue_matches_helper_chain(standard, num_ranks,
                                               num_banks, stream):
    timing = PRESETS[standard]
    channel = Channel(timing, num_ranks, num_banks, log_commands=True)
    reference = ReferenceChannel(timing, num_ranks, num_banks)
    assert state(channel, 0) == state(reference, 0)
    last = 0
    for kind, rank, bank, row, (mode, delta), cut in stream:
        rank %= num_ranks
        bank %= num_banks
        timings = None if cut is None else timing.reduced_by(*cut)
        if mode == "gap":
            cycle = last + delta
        else:
            try:
                earliest = reference.earliest(kind, rank, bank)
            except RuntimeError:   # ACT to an open bank, REF with one
                earliest = last
            cycle = max(0, earliest + (delta if mode == "near" else 0))
        bus = reference.next_cmd
        result, error = apply(channel, kind, rank, bank, row, cycle,
                              timings)
        expected, expected_error = apply(reference, kind, rank, bank, row,
                                         cycle, timings)
        assert error == expected_error, (kind, rank, bank, cycle)
        if error is None:
            assert result == expected
            last = cycle
        else:
            reference.next_cmd = bus
        assert state(channel, cycle + 7) == state(reference, cycle + 7)
    assert channel.command_log == reference.command_log
