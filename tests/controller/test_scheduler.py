"""Unit tests for FR-FCFS scheduling."""

import pytest

from repro.controller.queues import RequestQueue
from repro.controller.request import read_request, write_request
from repro.controller.scheduler import FRFCFSScheduler
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600


@pytest.fixture
def channel():
    return Channel(DDR3_1600, num_ranks=1, num_banks=8)


def queued(*coords):
    """Build a queue of read requests at (rank, bank, row) coords."""
    q = RequestQueue(16)
    for i, (rank, bank, row) in enumerate(coords):
        req = read_request(i)
        req.rank, req.bank, req.row = rank, bank, row
        req.channel = 0
        q.push(req, 0)
    return q


class TestFRFCFS:
    def test_closed_bank_gets_act(self, channel):
        q = queued((0, 0, 5))
        _, _, req, cmd = FRFCFSScheduler().choose(q, channel, 0)
        assert cmd is Command.ACT
        assert req.row == 5

    def test_row_hit_prioritised_over_older_conflict(self, channel):
        channel.issue_activate(0, 0, 5, 0)
        ready = DDR3_1600.tRCD
        # Oldest request conflicts (row 9); younger hits row 5.
        q = queued((0, 0, 9), (0, 0, 5))
        _, _, req, cmd = FRFCFSScheduler().choose(q, channel, ready)
        assert cmd is Command.RD
        assert req.row == 5

    def test_conflict_triggers_precharge(self, channel):
        channel.issue_activate(0, 0, 5, 0)
        q = queued((0, 0, 9))
        at = DDR3_1600.tRAS
        _, _, _, cmd = FRFCFSScheduler().choose(q, channel, at)
        assert cmd is Command.PRE

    def test_nothing_ready_returns_none(self, channel):
        channel.issue_activate(0, 0, 5, 0)
        q = queued((0, 0, 9))  # conflict, but tRAS not yet satisfied
        assert FRFCFSScheduler().choose(q, channel, 1) is None

    def test_blocked_rank_skipped(self, channel):
        q = queued((0, 0, 5))
        decision = FRFCFSScheduler().choose(q, channel, 0,
                                            blocked_ranks={0})
        assert decision is None

    def test_oldest_ready_wins_among_misses(self, channel):
        q = queued((0, 1, 7), (0, 2, 8))
        _, _, req, _ = FRFCFSScheduler().choose(q, channel, 0)
        assert req.bank == 1  # arrival order

    def test_write_request_gets_wr(self, channel):
        channel.issue_activate(0, 0, 5, 0)
        q = RequestQueue(4)
        req = write_request(0)
        req.rank, req.bank, req.row, req.channel = 0, 0, 5, 0
        q.push(req, 0)
        _, _, _, cmd = FRFCFSScheduler().choose(q, channel, DDR3_1600.tRCD)
        assert cmd is Command.WR
