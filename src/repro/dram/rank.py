"""Per-rank DRAM state: tRRD, tFAW and refresh gating.

Rank-scope constraints:

* tRRD - minimum spacing between ACTs to different banks of one rank.
* tFAW - at most four ACTs within any tFAW-cycle window (tracked with a
  ring of the last four ACT cycles).
* tRFC - after a REF, no ACT to the rank until tRFC elapses.
"""

from __future__ import annotations

from typing import List

from repro.dram.bank import Bank
from repro.dram.timing import TimingParameters


class Rank:
    """Timing state for one rank (a group of banks).

    Rank-wide scans below are plain loops over at most a few dozen
    :class:`Bank` objects.
    """

    __slots__ = ("timing", "banks", "next_act", "act_history",
                 "refresh_busy_until", "act_gate",
                 "open_banks", "any_open_since", "any_open_cycles")

    def __init__(self, timing: TimingParameters, num_banks: int):
        self.timing = timing
        self.banks: List[Bank] = [Bank() for _ in range(num_banks)]
        #: tRRD gate: the last ACT's cycle + tRRD.
        self.next_act = 0
        #: Cycles of the last four ACTs (the tFAW window), oldest first.
        self.act_history: List[int] = []
        self.refresh_busy_until = 0
        #: Rank-level earliest ACT cycle: ``max(next_act, 4th-last ACT +
        #: tFAW, refresh_busy_until)``.  A maintained field:
        #: :meth:`Channel.issue_activate
        #: <repro.dram.channel.Channel.issue_activate>` and
        #: :meth:`do_refresh` are the only places its inputs change, and
        #: each recomputes it.
        self.act_gate = 0
        # Active-standby accounting ("any bank open" time, for IDD3N),
        # kept by the channel's ACT and PRE.
        self.open_banks = 0
        self.any_open_since = 0
        self.any_open_cycles = 0

    # ------------------------------------------------------------------

    def earliest_act(self) -> int:
        """Rank-level earliest ACT cycle (tRRD + tFAW + tRFC)."""
        return self.act_gate

    def _update_act_gate(self) -> None:
        gate = self.next_act
        if len(self.act_history) == 4:
            faw_gate = self.act_history[0] + self.timing.tFAW
            if faw_gate > gate:
                gate = faw_gate
        if self.refresh_busy_until > gate:
            gate = self.refresh_busy_until
        self.act_gate = gate

    # ------------------------------------------------------------------
    # Refresh support
    # ------------------------------------------------------------------

    def all_banks_closed(self) -> bool:
        for bank in self.banks:
            if bank.open_row is not None:
                return False
        return True

    def earliest_refresh(self) -> int:
        """Earliest cycle a REF may be issued (all banks precharged).

        A REF requires every bank to be closed and past its tRP window,
        which is encoded in each bank's ``next_act``.
        """
        if not self.all_banks_closed():
            raise RuntimeError("REF requires all banks precharged")
        earliest = self.refresh_busy_until
        for bank in self.banks:
            if bank.next_act > earliest:
                earliest = bank.next_act
        return earliest

    def do_refresh(self, cycle: int) -> None:
        """Apply a REF command: the rank is busy for tRFC cycles."""
        if not self.all_banks_closed():
            raise RuntimeError("REF issued with an open bank")
        done = cycle + self.timing.tRFC
        self.refresh_busy_until = done
        self._update_act_gate()
        for bank in self.banks:
            bank.do_refresh_block(done)

    # ------------------------------------------------------------------
    # Active-standby accounting (energy model input)
    # ------------------------------------------------------------------

    def any_open_until(self, cycle: int) -> int:
        """Cycles with >= 1 open bank (IDD3N active standby), to date."""
        total = self.any_open_cycles
        if self.open_banks:
            total += max(0, cycle - self.any_open_since)
        return total

    # ------------------------------------------------------------------

    def active_cycles_until(self, cycle: int) -> int:
        """Aggregate bank-open cycles across the rank, up to ``cycle``."""
        return sum(bank.active_cycles_until(cycle) for bank in self.banks)
