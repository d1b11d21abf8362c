"""Per-channel DRAM state: command bus and data bus timing.

Channel-scope constraints:

* One command per bus cycle (command-bus serialization).
* tCCD between column commands sharing the data bus.
* Read-to-write and write-to-read turnaround across the channel.

A channel has Table 1's one rank (:data:`repro.config.RANKS_PER_CHANNEL`),
so no rank-to-rank switch delay is modelled; the ``rank`` argument
of every query and issue call indexes :attr:`Channel.ranks`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.commands import Command, IssuedCommand
from repro.dram.rank import Rank
from repro.dram.timing import TimingParameters, ReducedTimings


class Channel:
    """Timing state machine for one memory channel.

    The channel owns its ranks (and transitively banks) and is the only
    entry point used by the controller to issue commands, so every
    timing constraint is enforced in one place.
    """

    __slots__ = ("timing", "index", "ranks", "next_cmd",
                 "next_rd", "next_wr", "_default_act",
                 "_tccd", "_rd_to_pre", "_wr_to_pre",
                 "_rd_to_wr", "_wr_to_rd", "_rd_done", "_wr_done",
                 "command_log", "log_commands")

    def __init__(self, timing: TimingParameters, num_ranks: int,
                 num_banks: int, index: int = 0,
                 log_commands: bool = False):
        self.timing = timing
        self.index = index
        self.ranks: List[Rank] = [Rank(timing, num_banks)
                                  for _ in range(num_ranks)]
        self.next_cmd = 0       # command bus free cycle
        self.next_rd = 0        # earliest RD anywhere on the channel
        self.next_wr = 0        # earliest WR anywhere on the channel
        # ``timing`` is frozen, so what each command derives from it is
        # built once: the timings of a normal ACT, and the column
        # spacings, turnarounds and completion delays of RD and WR.
        self._default_act = timing.default_timings()
        self._tccd = timing.tCCD
        self._rd_to_pre = timing.read_to_pre
        self._wr_to_pre = timing.write_to_pre
        self._rd_to_wr = timing.read_to_write
        self._wr_to_rd = timing.write_to_read
        self._rd_done = timing.read_latency
        self._wr_done = timing.tCWL + timing.tBL
        self.log_commands = log_commands
        self.command_log: List[IssuedCommand] = []

    # ------------------------------------------------------------------
    # Earliest-issue queries
    # ------------------------------------------------------------------

    def earliest(self, command: Command, rank: int, bank: int) -> int:
        """Earliest bus cycle at which ``command`` may be issued."""
        rk = self.ranks[rank]
        bk = rk.banks[bank]
        if command is Command.ACT:
            gate = max(bk.earliest_act(), rk.act_gate)
        elif command is Command.PRE:
            gate = bk.next_pre
        elif command is Command.RD:
            gate = max(bk.next_rd, self.next_rd)
        elif command is Command.WR:
            gate = max(bk.next_wr, self.next_wr)
        elif command is Command.REF:
            gate = rk.earliest_refresh()
        else:
            raise ValueError(f"unsupported command {command}")
        return max(gate, self.next_cmd)

    def can_issue(self, command: Command, rank: int, bank: int,
                  cycle: int) -> bool:
        return self.earliest(command, rank, bank) <= cycle

    def earliest_refresh_action(self, rank: int) -> int:
        """Earliest cycle the controller can make refresh progress.

        When every bank of ``rank`` is precharged this is the earliest
        REF; otherwise it is the earliest PRE over the still-open banks
        (the controller must close them before refreshing).  Used by the
        event engine to wake exactly when a due refresh can advance,
        instead of polling :meth:`can_issue` every cycle.
        """
        gate = None
        for bk in self.ranks[rank].banks:
            if bk.open_row is not None and (gate is None
                                            or bk.next_pre < gate):
                gate = bk.next_pre
        if gate is None:
            return self.earliest(Command.REF, rank, 0)
        # PRE is gated only by the bank's next_pre and the command bus.
        return max(gate, self.next_cmd)

    # ------------------------------------------------------------------
    # Command issue
    # ------------------------------------------------------------------

    def issue_activate(self, rank: int, bank: int, row: int, cycle: int,
                       timings: Optional[ReducedTimings] = None) -> None:
        """Issue an ACT; ``timings`` may lower tRCD/tRAS for this row.

        Checks and applies the command in one frame: the command bus,
        the bank's row and gates, and the rank's tRRD/tFAW window,
        ``act_gate`` and open-bank accounting.
        """
        if timings is None:
            timings = self._default_act
        if cycle < self.next_cmd:
            raise RuntimeError(
                f"command bus busy until {self.next_cmd}, issue at {cycle}")
        rk = self.ranks[rank]
        if cycle < rk.act_gate:
            raise RuntimeError(
                f"ACT at {cycle} violates tRRD/tFAW/tRFC "
                f"(earliest {rk.act_gate})")
        bk = rk.banks[bank]
        if bk.open_row is not None:
            raise RuntimeError(
                f"ACT to open bank (row {bk.open_row}) at cycle {cycle}")
        if cycle < bk.next_act:
            raise RuntimeError(
                f"ACT at {cycle} violates tRP/tRFC (earliest {bk.next_act})")
        self.next_cmd = cycle + 1
        t = self.timing
        trcd = timings.trcd
        tras = timings.tras
        bk.open_row = row
        bk.last_open_at = cycle
        bk.act_reduced = trcd < t.tRCD or tras < t.tRAS
        bk.next_rd = bk.next_wr = cycle + trcd
        gate = cycle + tras
        if gate > bk.next_pre:
            bk.next_pre = gate
        # The rank's tRRD gate and tFAW window, then act_gate from them
        # (the formula of Rank._update_act_gate).
        gate = cycle + t.tRRD
        if gate < rk.next_act:
            gate = rk.next_act
        rk.next_act = gate
        history = rk.act_history
        history.append(cycle)
        if len(history) > 4:
            del history[0]
        if len(history) == 4:
            faw_gate = history[0] + t.tFAW
            if faw_gate > gate:
                gate = faw_gate
        if rk.refresh_busy_until > gate:
            gate = rk.refresh_busy_until
        rk.act_gate = gate
        if rk.open_banks == 0:
            rk.any_open_since = cycle
        rk.open_banks += 1
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.ACT, cycle, self.index, rank, bank, row,
                reduced=bk.act_reduced))

    def issue_precharge(self, rank: int, bank: int, cycle: int) -> int:
        """Issue a PRE; returns the row that was closed."""
        if cycle < self.next_cmd:
            raise RuntimeError(
                f"command bus busy until {self.next_cmd}, issue at {cycle}")
        rk = self.ranks[rank]
        bk = rk.banks[bank]
        row = bk.open_row
        if row is None:
            raise RuntimeError(f"PRE to closed bank at cycle {cycle}")
        if cycle < bk.next_pre:
            raise RuntimeError(
                f"PRE at {cycle} violates tRAS/tRTP/tWR "
                f"(earliest {bk.next_pre})")
        self.next_cmd = cycle + 1
        bk.open_row = None
        bk.open_cycles += cycle - bk.last_open_at
        gate = cycle + self.timing.tRP
        if gate > bk.next_act:
            bk.next_act = gate
        # A bank was open, so the rank counts at least one.
        rk.open_banks -= 1
        if rk.open_banks == 0:
            rk.any_open_cycles += cycle - rk.any_open_since
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.PRE, cycle, self.index, rank, bank, row))
        return row

    def issue_read(self, rank: int, bank: int, cycle: int) -> int:
        """Issue a RD; returns the cycle the data burst completes."""
        if cycle < self.next_cmd:
            raise RuntimeError(
                f"command bus busy until {self.next_cmd}, issue at {cycle}")
        bk = self.ranks[rank].banks[bank]
        if bk.open_row is None:
            raise RuntimeError(f"RD to closed bank at cycle {cycle}")
        if cycle < bk.next_rd:
            raise RuntimeError(
                f"RD at {cycle} violates tRCD/tCCD (earliest {bk.next_rd})")
        next_rd = self.next_rd
        next_wr = self.next_wr
        if cycle < next_rd:
            raise RuntimeError(
                f"RD at {cycle} violates tCCD/tWTR (earliest {next_rd})")
        self.next_cmd = cycle + 1
        gate = cycle + self._rd_to_pre
        if gate > bk.next_pre:
            bk.next_pre = gate
        gate = cycle + self._tccd
        if gate > next_rd:
            self.next_rd = gate
        gate = cycle + self._rd_to_wr
        if gate > next_wr:
            self.next_wr = gate
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.RD, cycle, self.index, rank, bank))
        return cycle + self._rd_done

    def issue_write(self, rank: int, bank: int, cycle: int) -> int:
        """Issue a WR; returns the cycle the burst is fully written."""
        if cycle < self.next_cmd:
            raise RuntimeError(
                f"command bus busy until {self.next_cmd}, issue at {cycle}")
        bk = self.ranks[rank].banks[bank]
        if bk.open_row is None:
            raise RuntimeError(f"WR to closed bank at cycle {cycle}")
        if cycle < bk.next_wr:
            raise RuntimeError(
                f"WR at {cycle} violates tRCD/tCCD (earliest {bk.next_wr})")
        next_rd = self.next_rd
        next_wr = self.next_wr
        if cycle < next_wr:
            raise RuntimeError(
                f"WR at {cycle} violates tCCD/tRTW (earliest {next_wr})")
        self.next_cmd = cycle + 1
        gate = cycle + self._wr_to_pre
        if gate > bk.next_pre:
            bk.next_pre = gate
        gate = cycle + self._tccd
        if gate > next_wr:
            self.next_wr = gate
        gate = cycle + self._wr_to_rd
        if gate > next_rd:
            self.next_rd = gate
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.WR, cycle, self.index, rank, bank))
        return cycle + self._wr_done

    def issue_refresh(self, rank: int, cycle: int) -> None:
        if cycle < self.next_cmd:
            raise RuntimeError(
                f"command bus busy until {self.next_cmd}, issue at {cycle}")
        self.ranks[rank].do_refresh(cycle)
        self.next_cmd = cycle + 1
        if self.log_commands:
            self.command_log.append(IssuedCommand(
                Command.REF, cycle, self.index, rank))

    # ------------------------------------------------------------------

    def bank(self, rank: int, bank: int):
        return self.ranks[rank].banks[bank]

    def active_cycles_until(self, cycle: int) -> int:
        return sum(rank.active_cycles_until(cycle) for rank in self.ranks)

    def rank_active_cycles_until(self, cycle: int) -> int:
        """Sum of per-rank "any bank open" cycles (IDD3N standby time)."""
        return sum(rank.any_open_until(cycle) for rank in self.ranks)
