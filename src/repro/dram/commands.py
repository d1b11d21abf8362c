"""DRAM command vocabulary.

The simulator models the subset of the DDR3 command set that matters for
row-activation latency studies: activate, precharge (single-bank and
all-bank), column read/write and refresh.  Auto-precharge variants are
modelled by the controller issuing an explicit PRE, which is timing
equivalent for the experiments in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Command(enum.IntEnum):
    """DDR3 commands used by the memory controller."""

    ACT = 0
    PRE = 1
    PREA = 2  # precharge-all (used before REF)
    RD = 3
    WR = 4
    REF = 5


@dataclass(frozen=True)
class IssuedCommand:
    """Record of one command issued on the command bus.

    Attributes:
        command: which DDR3 command.
        cycle: DRAM bus cycle at which it was issued.
        channel, rank, bank: target coordinates (bank is -1 for
            rank-scoped commands).
        row: row address for ACT, the previously open row for PRE,
            -1 otherwise.
        reduced: True when the command was issued with lowered timing
            parameters (a ChargeCache/NUAT hit on the ACT).
    """

    command: Command
    cycle: int
    channel: int
    rank: int
    bank: int = -1
    row: int = -1
    reduced: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        tag = "*" if self.reduced else ""
        return (f"{self.cycle}: {self.command.name}{tag} "
                f"ch{self.channel} ra{self.rank} ba{self.bank} row{self.row}")
