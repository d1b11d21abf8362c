"""Per-bank DRAM state machine.

A bank tracks which row (if any) is open and the earliest bus cycle at
which each command class may legally be issued to it.  The timing chains
relevant to ChargeCache are:

* ``ACT -> RD/WR`` gated by tRCD (reduced on a ChargeCache/NUAT hit),
* ``ACT -> PRE``   gated by tRAS (reduced on a hit),
* ``PRE -> ACT``   gated by tRP.

tRC (ACT->ACT same bank) is enforced transitively by the tRAS + tRP
chain, because a bank must be precharged before it can be activated
again.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.dram.timing import TimingParameters, ReducedTimings


class BankState(enum.Enum):
    """Logical row-buffer state of a bank."""

    CLOSED = "closed"
    OPEN = "open"


class Bank:
    """Timing and row-buffer state for one DRAM bank.

    ``open_row`` is ``None`` for a precharged bank, else the open row.
    ``next_act``/``next_pre``/``next_rd``/``next_wr`` are the earliest
    bus cycles at which each command class may issue to this bank.  All
    are plain ints: the scheduler reads them millions of times per run,
    and a channel has at most a few dozen banks, so scalar attributes
    beat any vector layout.
    """

    __slots__ = ("timing", "open_row", "next_act", "next_pre", "next_rd",
                 "next_wr", "act_reduced", "open_cycles", "last_open_at")

    def __init__(self, timing: TimingParameters):
        self.timing = timing
        self.open_row: Optional[int] = None
        self.next_act = 0
        self.next_pre = 0
        self.next_rd = 0
        self.next_wr = 0
        # Bookkeeping for the last activation.
        self.act_reduced = False
        self.last_open_at = 0
        # Bank-open time, for the energy model.
        self.open_cycles = 0

    # ------------------------------------------------------------------

    @property
    def state(self) -> BankState:
        return BankState.CLOSED if self.open_row is None else BankState.OPEN

    def is_open(self, row: Optional[int] = None) -> bool:
        if self.open_row is None:
            return False
        return True if row is None else self.open_row == row

    # ------------------------------------------------------------------
    # Earliest-issue queries (pure; no state change)
    # ------------------------------------------------------------------

    def earliest_act(self) -> int:
        if self.open_row is not None:
            raise RuntimeError("ACT issued to an open bank; PRE required first")
        return self.next_act

    def earliest_pre(self) -> int:
        return self.next_pre

    def earliest_rd(self) -> int:
        return self.next_rd

    def earliest_wr(self) -> int:
        return self.next_wr

    # ------------------------------------------------------------------
    # Command application
    # ------------------------------------------------------------------

    def do_activate(self, row: int, cycle: int,
                    timings: ReducedTimings) -> None:
        """Open ``row`` at ``cycle`` using the supplied activation timings."""
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
        """Close the open row; returns the row that was open."""
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
        """Block activations until a refresh completes (tRFC)."""
        if self.open_row is not None:
            raise RuntimeError("REF issued while a bank row is open")
        self.next_act = max(self.next_act, until_cycle)

    # ------------------------------------------------------------------

    def active_cycles_until(self, cycle: int) -> int:
        """Total cycles this bank has had a row open, up to ``cycle``."""
        total = self.open_cycles
        if self.open_row is not None:
            total += max(0, cycle - self.last_open_at)
        return total
