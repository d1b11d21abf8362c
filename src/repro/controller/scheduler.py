"""The memory controller's request scheduler: FR-FCFS.

**FR-FCFS** (first-ready, first-come-first-served; Rixner et al. [79],
Zuravleff & Robinson [101]) is the policy Table 1 fixes: among
requests whose next required command can issue *now*, column commands
to already-open rows (row hits) win; ties break by age.

A decision is a :data:`Candidate`, ``(earliest_issue_cycle, queue_seq,
request, command)``, naming the request and the command to issue on
its behalf this cycle (``None`` when nothing can issue).  ``choose``
returns it and ``next_ready_cycle`` the earliest cycle at which
anything could issue.  Both are views of one readiness snapshot per
controller state (see :class:`FRFCFSScheduler`), so the controller's
decision and its wake-up bid cannot disagree, and ``choose`` hands out
the snapshot's own candidate, so no decision object is built per
command.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.controller.request import Request, RequestType
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import NEVER


#: ``(earliest_issue_cycle, queue_seq, request, command)``: a snapshot
#: entry, and the decision :meth:`FRFCFSScheduler.choose` returns.
Candidate = Tuple[int, int, Request, Command]

# Enum members as plain globals: the snapshot loop reads them per bank.
_ACT, _PRE, _RD, _WR = Command.ACT, Command.PRE, Command.RD, Command.WR
_READ = RequestType.READ

#: The ``blocked`` part of a snapshot key when no rank is blocked.
_UNBLOCKED: FrozenSet[int] = frozenset()


class FRFCFSScheduler:
    """First-ready FCFS over one request queue.

    Readiness is a per-state *snapshot*: the candidate commands of every
    unblocked queued bank with their earliest-issue cycles, built once
    per controller state and kept under the key ``(queue,
    queue.version, channel, channel.next_cmd, blocked ranks)``.  Each
    cycle's decision and ready bound are derived from it without
    touching the DRAM state again.

    The key is sound because nothing else feeds the snapshot: queue
    contents change only through ``push``/``remove``, which bump
    ``queue.version``, and every bank, rank or channel timing register
    changes only inside a ``Channel.issue_*`` call, each of which
    claims the command bus and so strictly advances ``next_cmd``.

    Ranks in ``blocked_ranks`` are reserved for refresh; no new command
    is scheduled to them.  Each other bank with queued requests offers
    its candidates: ACT for its oldest request when closed; when open,
    the column command for its oldest row hit and PRE for its oldest
    conflict.  Commands to one bank share timing state, so the oldest
    candidate of each kind speaks for the rest.  The queue must be
    homogeneous (all reads or all writes), as the controller's
    per-direction queues are.
    """

    #: The policy's Table 1 name (the ``table1`` experiment echoes it).
    name = "frfcfs"

    def __init__(self):
        #: Snapshots built so far (an exact work counter for tests and
        #: benchmarks; one per distinct controller state scanned).
        self.snapshots = 0
        self._queue = self._channel = None
        self._version = self._next_cmd = -1
        self._blocked = _UNBLOCKED
        self._hits: List[Candidate] = []
        self._rows: List[Candidate] = []
        self._ready = NEVER

    def _snapshot(self, queue, channel: Channel, blocked) -> None:
        """One walk over the queued banks: every candidate and its
        earliest-issue cycle, :meth:`Channel.earliest` computed inline
        from the bank, rank and channel registers."""
        self.snapshots += 1
        next_cmd = channel.next_cmd
        self._queue, self._version = queue, queue.version
        self._channel, self._next_cmd = channel, next_cmd
        self._blocked = blocked
        ranks = channel.ranks
        hits: List[Candidate] = []
        rows: List[Candidate] = []
        ready = NEVER
        # The channel column gate of the hit direction, maxed with the
        # bus (-1 until the first hit sets it).
        col = -1
        is_rd, cmd = True, _RD
        for (rank, bank), entries in queue.by_bank.items():
            if rank in blocked:
                continue  # reserved for refresh; refresh wake-ups cover it
            rk = ranks[rank]
            bk = rk.banks[bank]
            open_row = bk.open_row
            if open_row is None:
                t = bk.next_act
                gate = rk.act_gate
                if gate > t:
                    t = gate
                if next_cmd > t:
                    t = next_cmd
                seq, req = entries[0]
                rows.append((t, seq, req, _ACT))
                if t < ready:
                    ready = t
                continue
            hit = miss = None
            for entry in entries:
                if entry[1].row == open_row:
                    if hit is None:
                        hit = entry
                        if miss is not None:
                            break
                elif miss is None:
                    miss = entry
                    if hit is not None:
                        break
            if hit is not None:
                seq, req = hit
                if col < 0:   # the queue is homogeneous: ask once
                    is_rd = req.type is _READ
                    cmd = _RD if is_rd else _WR
                    col = channel.next_rd if is_rd else channel.next_wr
                    if next_cmd > col:
                        col = next_cmd
                t = bk.next_rd if is_rd else bk.next_wr
                if col > t:
                    t = col
                hits.append((t, seq, req, cmd))
                if t < ready:
                    ready = t
            if miss is not None:
                t = bk.next_pre
                if next_cmd > t:
                    t = next_cmd
                rows.append((t, miss[0], miss[1], _PRE))
                if t < ready:
                    ready = t
        self._hits, self._rows, self._ready = hits, rows, ready

    def choose(self, queue, channel: Channel, cycle: int,
               blocked_ranks=()) -> Optional[Candidate]:
        """The candidate to issue at ``cycle``, or None: the ready row
        hit that arrived first, else the ready ACT or PRE that arrived
        first.  This is exactly the classic two-pass "oldest ready hit,
        then oldest ready request" rule.

        The snapshot key check is inlined here and in
        :meth:`next_ready_cycle`: each runs once per controller tick or
        bid, so one call does the whole view.
        """
        blocked = frozenset(blocked_ranks) if blocked_ranks else _UNBLOCKED
        if (queue.version != self._version
                or channel.next_cmd != self._next_cmd
                or queue is not self._queue or channel is not self._channel
                or blocked != self._blocked):
            self._snapshot(queue, channel, blocked)
        if cycle < self._ready:
            return None
        for candidates in (self._hits, self._rows):
            best = None
            for cand in candidates:
                if cand[0] <= cycle and (best is None or cand[1] < best[1]):
                    best = cand
            if best is not None:
                return best
        return None

    def next_ready_cycle(self, queue, channel: Channel, cycle: int,
                         blocked_ranks=()) -> int:
        """Earliest cycle at which :meth:`choose` could return non-None:
        the minimum earliest-issue cycle over all candidates.  It is
        exact until the controller state changes (a command issue or a
        queue push/removal)."""
        blocked = frozenset(blocked_ranks) if blocked_ranks else _UNBLOCKED
        if (queue.version != self._version
                or channel.next_cmd != self._next_cmd
                or queue is not self._queue or channel is not self._channel
                or blocked != self._blocked):
            self._snapshot(queue, channel, blocked)
        return self._ready
