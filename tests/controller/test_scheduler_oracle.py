"""Differential test: the one-walk FR-FCFS scan against the two-pass rule.

The reference below is the classic formulation of FR-FCFS kept verbatim
as an oracle: pass 1 picks the oldest request whose row hit can issue
its column command now, pass 2 the oldest request whose ACT or PRE can
issue now; the ready bound is the minimum earliest-issue cycle over
each bank's required commands.  Hypothesis drives both over random
1-2-rank channels (legal ACT/RD/WR/PRE/REF histories), random read or
write queues with removals from the middle, random refresh-blocked
ranks and random query cycles.

The scheduler caches its readiness snapshot per controller state, so
a second test keeps one scheduler alive through a random sequence of
command issues, queue changes, blocked-rank changes and advancing
cycles, and checks it after every step against a fresh scheduler and
the reference.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.controller.queues import RequestQueue
from repro.controller.request import read_request, write_request
from repro.controller.scheduler import FRFCFSScheduler
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600, NEVER

from tests.helpers import requests_for_bank, requests_for_row

NUM_BANKS = 4
NUM_ROWS = 2     # few rows, so queued requests often hit


def required_command(request, channel):
    """The next command ``request`` needs, given current bank state."""
    open_row = channel.bank(request.rank, request.bank).open_row
    if open_row is None:
        return Command.ACT
    if open_row != request.row:
        return Command.PRE
    return Command.WR if request.is_write else Command.RD


def scan(scheduler, queue, channel, cycle, blocked_ranks=()):
    """``(decision, ready bound)``: the scheduler's two views at
    ``cycle``, in the order the controller asks them."""
    return (scheduler.choose(queue, channel, cycle, blocked_ranks),
            scheduler.next_ready_cycle(queue, channel, cycle,
                                       blocked_ranks))


def reference_choose(queue, channel, cycle, blocked_ranks=()):
    """The ``(request, command)`` to issue, or None."""
    for req in queue:
        if req.rank in blocked_ranks:
            continue
        if channel.bank(req.rank, req.bank).open_row != req.row:
            continue
        cmd = Command.WR if req.is_write else Command.RD
        if channel.can_issue(cmd, req.rank, req.bank, cycle):
            return req, cmd
    for req in queue:
        if req.rank in blocked_ranks:
            continue
        cmd = required_command(req, channel)
        if cmd not in (Command.RD, Command.WR) and \
                channel.can_issue(cmd, req.rank, req.bank, cycle):
            return req, cmd
    return None


def reference_next_ready_cycle(queue, channel, cycle, blocked_ranks=()):
    best = NEVER
    col_cmd = Command.WR if next(iter(queue)).is_write else Command.RD
    for rank, bank in queue.by_bank:
        if rank in blocked_ranks:
            continue
        open_row = channel.bank(rank, bank).open_row
        if open_row is None:
            t = channel.earliest(Command.ACT, rank, bank)
        else:
            hits = requests_for_row(queue, rank, bank, open_row)
            t = channel.earliest(col_cmd, rank, bank) if hits else NEVER
            if hits < requests_for_bank(queue, rank, bank):
                t = min(t, channel.earliest(Command.PRE, rank, bank))
        best = min(best, t)
        if best <= cycle + 1:
            break
    return best


def _apply(channel, ops):
    """Issue each op at its earliest legal cycle; returns the last."""
    now = 0
    for kind, rank, bank, row in ops:
        rank %= len(channel.ranks)
        open_row = channel.bank(rank, bank).open_row
        if kind == "REF":
            if not channel.ranks[rank].all_banks_closed():
                continue
            now = max(now, channel.earliest(Command.REF, rank, 0))
            channel.issue_refresh(rank, now)
            continue
        cmd = {"ACT": Command.ACT, "PRE": Command.PRE,
               "RD": Command.RD, "WR": Command.WR}[kind]
        if (cmd is Command.ACT) != (open_row is None):
            continue  # not legal in the bank's current state
        now = max(now, channel.earliest(cmd, rank, bank))
        if cmd is Command.ACT:
            channel.issue_activate(rank, bank, row, now)
        elif cmd is Command.PRE:
            channel.issue_precharge(rank, bank, now)
        elif cmd is Command.RD:
            channel.issue_read(rank, bank, now)
        else:
            channel.issue_write(rank, bank, now)
    return now


coords = st.tuples(st.integers(0, 1), st.integers(0, NUM_BANKS - 1),
                   st.integers(0, NUM_ROWS - 1))
# ACT-heavy, so that most histories leave several banks open.
ops = st.lists(st.tuples(st.sampled_from(("ACT", "ACT", "ACT", "RD", "WR",
                                          "PRE", "REF")),
                         st.integers(0, 1), st.integers(0, NUM_BANKS - 1),
                         st.integers(0, NUM_ROWS - 1)),
               min_size=4, max_size=40)


@given(num_ranks=st.integers(1, 2), history=ops,
       writes=st.booleans(),
       queued=st.lists(coords, min_size=1, max_size=24),
       removals=st.lists(st.integers(0, 23), max_size=12),
       blocked=st.sampled_from((set(), set(), {0}, {1}, {0, 1})),
       offset=st.integers(-2, 80))
@settings(max_examples=300, deadline=None)
def test_scan_matches_two_pass_reference(num_ranks, history, writes,
                                         queued, removals, blocked,
                                         offset):
    channel = Channel(DDR3_1600, num_ranks=num_ranks, num_banks=NUM_BANKS)
    cycle = max(0, _apply(channel, history) + offset)
    queue = RequestQueue(32)
    make = write_request if writes else read_request
    for line, (rank, bank, row) in enumerate(queued):
        req = make(line)
        req.channel, req.rank, req.bank, req.row = \
            0, rank % num_ranks, bank, row
        queue.push(req, 0)
    for index in removals:
        items = list(queue)
        if len(items) > 1:
            queue.remove(items[index % len(items)])

    scheduler = FRFCFSScheduler()
    decision, ready = scan(scheduler, queue, channel, cycle, blocked)
    expected = reference_choose(queue, channel, cycle, blocked)
    if expected is None:
        assert decision is None
    else:
        assert decision is not None
        assert decision[2] is expected[0]
        assert decision[3] is expected[1]

    bid = reference_next_ready_cycle(queue, channel, cycle, blocked)
    if bid > cycle + 1:
        assert ready == bid
    for later in range(cycle + 1, min(ready, cycle + 400)):
        assert scheduler.choose(queue, channel, later, blocked) is None


# ----------------------------------------------------------------------
# Snapshot invalidation: one long-lived scheduler across state changes
# ----------------------------------------------------------------------

steps = st.lists(st.one_of(
    st.tuples(st.just("issue"),
              st.sampled_from(("ACT", "ACT", "RD", "WR", "PRE", "REF")),
              coords),
    st.tuples(st.just("push"), st.booleans(), coords),
    st.tuples(st.just("remove"), st.booleans(), st.integers(0, 31)),
    st.tuples(st.just("block"),
              st.sampled_from((set(), {0}, {1}, {0, 1}))),
    st.tuples(st.just("select"), st.booleans()),
    st.tuples(st.just("wait"), st.integers(1, 40)),
), min_size=1, max_size=60)


def _same(got, expected):
    """``got``, a candidate, names the request and command ``expected``
    names (a candidate or a reference ``(request, command)`` pair)."""
    if expected is None:
        return got is None
    req, cmd = expected[-2:]
    return got is not None and got[2] is req and got[3] is cmd


@given(num_ranks=st.integers(1, 2), program=steps,
       lookahead=st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_long_lived_scan_tracks_every_state_change(num_ranks, program,
                                                   lookahead):
    """A cached snapshot never outlives the state it was built from.

    One :class:`FRFCFSScheduler` lives through a random interleaving of
    legal ``Channel.issue_*`` calls, pushes and removals on a read and
    a write queue, changes of the refresh-blocked ranks, switches of
    the scanned queue and advancing cycles.  After every step its scan
    (at the current cycle and at a later one, which reuses the
    snapshot) must equal a fresh scheduler's scan and the two-pass
    reference.
    """
    channel = Channel(DDR3_1600, num_ranks=num_ranks, num_banks=NUM_BANKS)
    queues = {True: RequestQueue(32), False: RequestQueue(32)}
    scheduler = FRFCFSScheduler()
    now, line, blocked, writes = 0, 0, set(), False
    for step in program:
        kind = step[0]
        if kind == "issue":
            # At the command's earliest legal cycle (maybe before now).
            now = max(now, _apply(channel, [(step[1], *step[2])]))
        elif kind == "push":
            rank, bank, row = step[2]
            req = (write_request if step[1] else read_request)(line)
            line += 1
            req.channel, req.rank, req.bank, req.row = \
                0, rank % num_ranks, bank, row
            queues[step[1]].push(req, now)
        elif kind == "remove":
            items = list(queues[step[1]])
            if items:
                queues[step[1]].remove(items[step[2] % len(items)])
        elif kind == "block":
            blocked = {rank for rank in step[1] if rank < num_ranks}
        elif kind == "select":
            writes = step[1]
        else:
            now += step[1]
        queue = queues[writes]
        if not queue:
            continue
        for cycle in (now, now + lookahead):
            decision, ready = scan(scheduler, queue, channel, cycle,
                                   set(blocked))
            fresh = scan(FRFCFSScheduler(), queue, channel, cycle, blocked)
            assert _same(decision, fresh[0])
            assert ready == fresh[1]
            assert _same(decision, reference_choose(queue, channel, cycle,
                                                    blocked))
            bid = reference_next_ready_cycle(queue, channel, cycle,
                                             blocked)
            if bid > cycle + 1:
                assert ready == bid
            else:
                assert ready <= cycle + 1
