"""Differential tests: the closed-row decisions against brute force.

``ClosedRowPolicy.wants_precharge_after`` walks the bank's per-bank
entries, read queue first, and stops at the first request to the same
row; it must say "precharge" exactly when no request in either queue
targets the row (counted here over the queues' arrival-order lists).

``MemoryController._issue_pending_pre`` walks the pending-PRE set in
place and drops the closed banks it met after the walk.  The reference
below is the earlier formulation, which copied the set, discarded each
closed bank as it met it and issued the first legal PRE; both must
issue the same PRE and leave the same set, in the same iteration
order, from random pending sets, open and closed banks, blocked ranks
and bus states.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import ControllerConfig
from repro.controller.controller import MemoryController
from repro.controller.queues import RequestQueue
from repro.controller.request import read_request, write_request
from repro.controller.row_policy import ClosedRowPolicy
from repro.core.timing_policy import LatencyMechanism
from repro.dram.timing import DDR3_1600

RANKS, BANKS, ROWS = 2, 3, 3


def _request(make, line, rank, bank, row):
    req = make(line)
    req.channel, req.rank, req.bank, req.row = 0, rank, bank, row
    return req


def _brute_force_row_requests(queue, rank, bank, row):
    return sum(1 for req in queue.items
               if (req.rank, req.bank, req.row) == (rank, bank, row))


op = st.tuples(st.sampled_from(("push-read", "push-write", "remove")),
               st.integers(0, RANKS - 1), st.integers(0, BANKS - 1),
               st.integers(0, ROWS - 1), st.integers(0, 1 << 16))


@given(ops=st.lists(op, max_size=60), probe=st.tuples(
    st.integers(0, RANKS - 1), st.integers(0, BANKS - 1),
    st.integers(0, ROWS - 1)))
@settings(max_examples=300, deadline=None)
def test_wants_precharge_after_matches_brute_force(ops, probe):
    policy = ClosedRowPolicy()
    queues = {"read": RequestQueue(64), "write": RequestQueue(64)}
    line = 0

    def check(rank, bank, row):
        served = _request(read_request, -1, rank, bank, row)
        hits = sum(_brute_force_row_requests(q, rank, bank, row)
                   for q in queues.values())
        assert policy.wants_precharge_after(
            served, queues["read"], queues["write"]) == (hits == 0)

    for kind, rank, bank, row, n in ops:
        if kind == "remove":
            queue = queues["read" if n % 2 else "write"]
            if queue.items:
                queue.remove(queue.items[n % len(queue.items)])
        else:
            line += 1
            make = read_request if kind == "push-read" else write_request
            queues[kind[5:]].push(_request(make, line, rank, bank, row), 0)
        check(rank, bank, row)
        check(*probe)


def reference_issue_pending_pre(controller, cycle, blocked):
    """The copy-and-discard walk."""
    ranks = controller.channel.ranks
    bus_free = controller.channel.next_cmd <= cycle
    for rank, bank in list(controller._pending_pre):
        if rank in blocked:
            continue
        bank_state = ranks[rank].banks[bank]
        if bank_state.open_row is None:
            controller._pending_pre.discard((rank, bank))
            continue
        if bus_free and bank_state.next_pre <= cycle:
            controller._issue_pre(rank, bank, cycle)
            return True
    return False


def _controller(history, banks, next_cmd):
    controller = MemoryController(
        0, DDR3_1600, RANKS, BANKS, 64, ControllerConfig(
            row_policy="closed"), LatencyMechanism(DDR3_1600),
        refresh_enabled=False, log_commands=True)
    # The same adds and discards give the same set layout, and so the
    # same iteration order, in both controllers.
    for add, key in history:
        if add:
            controller._pending_pre.add(key)
        else:
            controller._pending_pre.discard(key)
    ranks = controller.channel.ranks
    for (rank, bank), (open_row, next_pre) in banks.items():
        bank_state = ranks[rank].banks[bank]
        bank_state.open_row = open_row
        bank_state.next_pre = next_pre
        if open_row is not None:
            ranks[rank].open_banks += 1
    controller.channel.next_cmd = next_cmd
    return controller


key = st.tuples(st.integers(0, RANKS - 1), st.integers(0, BANKS - 1))
bank_state = st.tuples(st.one_of(st.none(), st.integers(0, ROWS - 1)),
                       st.integers(0, 40))


@given(history=st.lists(st.tuples(st.booleans(), key), max_size=30),
       banks=st.dictionaries(key, bank_state),
       blocked=st.lists(st.integers(0, RANKS - 1), unique=True,
                        max_size=RANKS),
       next_cmd=st.integers(0, 40), cycle=st.integers(0, 40),
       rounds=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_issue_pending_pre_matches_copy_and_discard(history, banks, blocked,
                                                    next_cmd, cycle, rounds):
    blocked = tuple(sorted(blocked))
    new = _controller(history, banks, next_cmd)
    ref = _controller(history, banks, next_cmd)
    for _ in range(rounds):
        issued = new._issue_pending_pre(cycle, blocked)
        assert issued == reference_issue_pending_pre(ref, cycle, blocked)
        assert new.channel.command_log == ref.channel.command_log
        assert list(new._pending_pre) == list(ref._pending_pre)
        cycle = max(cycle, new.channel.next_cmd)
