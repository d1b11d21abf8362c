"""DRAM device model: commands, timing constraints and bank/rank/channel
state machines.

This subpackage is the reproduction's substitute for the C++ Ramulator
device model the paper used.  It implements the DDR3 command protocol at
the level ChargeCache interacts with: ACT/PRE/RD/WR/REF commands gated by
the standard inter-command timing constraints.
"""

from repro.dram.commands import Command
from repro.dram.timing import TimingParameters, ReducedTimings, DDR3_1600
from repro.dram.organization import Organization, DecodedAddress
from repro.dram.bank import Bank
from repro.dram.rank import Rank
from repro.dram.channel import Channel
from repro.dram.refresh import RefreshScheduler

__all__ = [
    "Command",
    "TimingParameters",
    "ReducedTimings",
    "DDR3_1600",
    "Organization",
    "DecodedAddress",
    "Bank",
    "Rank",
    "Channel",
    "RefreshScheduler",
]
