"""Request schedulers.

**FR-FCFS** (first-ready, first-come-first-served; Rixner et al. [79],
Zuravleff & Robinson [101]) is the paper's baseline policy: among
requests whose next required command can issue *now*, column commands
to already-open rows (row hits) win; ties break by age.

**FCFS** serves strictly in arrival order and is provided as a
reference point for tests and ablations.

A scheduler's ``scan`` computes, in one pass, the
:class:`SchedulerDecision` naming the request and the command to issue
on its behalf this cycle (``None`` when nothing can issue) and the
earliest cycle at which anything could.  ``choose`` and
``next_ready_cycle`` are views of that one computation, so the
controller's decision and its wake-up bid cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.controller.request import Request
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import NEVER


@dataclass
class SchedulerDecision:
    """The command chosen for this cycle and the request it serves."""

    request: Request
    command: Command


def required_command(request: Request, channel: Channel) -> Command:
    """The next command this request needs, given current bank state."""
    bank = channel.bank(request.rank, request.bank)
    if bank.open_row is None:
        return Command.ACT
    if bank.open_row != request.row:
        return Command.PRE
    return Command.RD if request.is_read else Command.WR


class FRFCFSScheduler:
    """First-ready FCFS over one request queue."""

    name = "frfcfs"

    def __init__(self):
        #: Ready bound of the last :meth:`choose` (see :meth:`scan`).
        self.ready_cycle = NEVER

    def scan(self, queue, channel: Channel, cycle: int, blocked_ranks=()
             ) -> Tuple[Optional[SchedulerDecision], int]:
        """One walk over the queued banks: ``(decision, earliest_ready)``.

        ``blocked_ranks`` lists ranks currently reserved for refresh; no
        new command is scheduled to them.  Each other bank with queued
        requests offers its candidates: ACT for its oldest request when
        closed; when open, the column command for its oldest row hit and
        PRE for its oldest conflict.  Commands to one bank share timing
        state, so the oldest candidate of each kind speaks for the rest.

        ``decision`` is the ready row hit that arrived first, else the
        ready ACT or PRE that arrived first, else None: exactly the
        classic two-pass "oldest ready hit, then oldest ready request"
        rule.  ``earliest_ready`` is the minimum earliest-issue cycle
        over all candidates, so no cycle before it can produce a
        decision.  It is a lower bound valid until the next command
        issue or enqueue (the event engine recomputes after both):
        waking early and finding nothing to do is exactly what the
        dense engine does on every idle cycle.

        The queue must be homogeneous (all reads or all writes), as the
        controller's per-direction queues are.
        """
        hit = row_cmd = None     # best ready (seq, request, command)
        ready = NEVER
        for (rank, bank), entries in queue.by_bank():
            if rank in blocked_ranks:
                continue  # reserved for refresh; refresh wake-ups cover it
            open_row = channel.bank(rank, bank).open_row
            if open_row is None:
                t = channel.earliest(Command.ACT, rank, bank)
                if t < ready:
                    ready = t
                if t <= cycle and (row_cmd is None
                                   or entries[0][0] < row_cmd[0]):
                    seq, req = entries[0]
                    row_cmd = (seq, req, Command.ACT)
                continue
            hits = queue.requests_for_row(rank, bank, open_row)
            if hits:
                for seq, req in entries:
                    if req.row == open_row:
                        break
                cmd = Command.RD if req.is_read else Command.WR
                t = channel.earliest(cmd, rank, bank)
                if t < ready:
                    ready = t
                if t <= cycle and (hit is None or seq < hit[0]):
                    hit = (seq, req, cmd)
            if hits < len(entries):
                for seq, req in entries:
                    if req.row != open_row:
                        break
                t = channel.earliest(Command.PRE, rank, bank)
                if t < ready:
                    ready = t
                if t <= cycle and (row_cmd is None or seq < row_cmd[0]):
                    row_cmd = (seq, req, Command.PRE)
        best = hit or row_cmd
        if best is None:
            return None, ready
        return SchedulerDecision(best[1], best[2]), ready

    def choose(self, queue, channel: Channel, cycle: int,
               blocked_ranks=()) -> Optional[SchedulerDecision]:
        """The command to issue at ``cycle``, or None (:meth:`scan`).

        The scan's ready bound is kept in :attr:`ready_cycle`, so a
        caller that found nothing ready can reuse it as its wake bid.
        """
        decision, self.ready_cycle = self.scan(queue, channel, cycle,
                                               blocked_ranks)
        return decision

    def next_ready_cycle(self, queue, channel: Channel, cycle: int,
                         blocked_ranks=()) -> int:
        """Earliest cycle at which :meth:`choose` could return non-None."""
        return self.scan(queue, channel, cycle, blocked_ranks)[1]


class FCFSScheduler:
    """Strict in-order service of the oldest request."""

    name = "fcfs"

    def __init__(self):
        self.ready_cycle = NEVER

    def scan(self, queue, channel: Channel, cycle: int, blocked_ranks=()
             ) -> Tuple[Optional[SchedulerDecision], int]:
        """Only the oldest unblocked request counts (head-of-line
        blocking): its command if ready, and when it will be."""
        for req in queue:
            if req.rank in blocked_ranks:
                continue
            cmd = required_command(req, channel)
            t = channel.earliest(cmd, req.rank, req.bank)
            return (SchedulerDecision(req, cmd) if t <= cycle else None), t
        return None, NEVER

    def choose(self, queue, channel: Channel, cycle: int,
               blocked_ranks=()) -> Optional[SchedulerDecision]:
        decision, self.ready_cycle = self.scan(queue, channel, cycle,
                                               blocked_ranks)
        return decision

    def next_ready_cycle(self, queue, channel: Channel, cycle: int,
                         blocked_ranks=()) -> int:
        return self.scan(queue, channel, cycle, blocked_ranks)[1]


def make_scheduler(name: str):
    if name == "frfcfs":
        return FRFCFSScheduler()
    if name == "fcfs":
        return FCFSScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
