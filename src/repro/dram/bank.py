"""Per-bank DRAM state.

A bank tracks which row (if any) is open and the earliest bus cycle at
which each command class may legally be issued to it.  The timing chains
relevant to ChargeCache are:

* ``ACT -> RD/WR`` gated by tRCD (reduced on a ChargeCache/NUAT hit),
* ``ACT -> PRE``   gated by tRAS (reduced on a hit),
* ``PRE -> ACT``   gated by tRP.

tRC (ACT->ACT same bank) is enforced transitively by the tRAS + tRP
chain, because a bank must be precharged before it can be activated
again.

The registers change only in :class:`~repro.dram.channel.Channel`'s
``issue_*`` methods, which check and apply each command in one frame,
and in a refresh (:meth:`Bank.do_refresh_block`).
"""

from __future__ import annotations

from typing import Optional


class Bank:
    """Timing and row-buffer state for one DRAM bank.

    ``open_row`` is ``None`` for a precharged bank, else the open row.
    ``next_act``/``next_pre``/``next_rd``/``next_wr`` are the earliest
    bus cycles at which each command class may issue to this bank.  All
    are plain ints: the scheduler reads them millions of times per run,
    and a channel has at most a few dozen banks, so scalar attributes
    beat any vector layout.
    """

    __slots__ = ("open_row", "next_act", "next_pre", "next_rd",
                 "next_wr", "act_reduced", "open_cycles", "last_open_at")

    def __init__(self):
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

    def earliest_act(self) -> int:
        if self.open_row is not None:
            raise RuntimeError("ACT issued to an open bank; PRE required first")
        return self.next_act

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
