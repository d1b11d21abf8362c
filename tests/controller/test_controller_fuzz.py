"""Property-based fuzzing of the memory controller.

Hypothesis generates arbitrary request streams (banks, rows, columns,
read/write mixes, arrival gaps); for every stream we assert:

* **liveness** - every accepted read eventually completes;
* **legality** - the issued command stream passes the independent
  DDR3 constraint checker (tests/helpers.py);
* **conservation** - counts of issued column commands match the
  accepted requests (writes may coalesce).

This complements the directed tests in test_controller.py with breadth.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.config import ChargeCacheConfig, ControllerConfig
from repro.controller.controller import MemoryController
from repro.controller.request import Request, RequestType
from repro.core.chargecache import ChargeCache
from repro.core.timing_policy import LatencyMechanism
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600

from tests.helpers import check_command_log

T = DDR3_1600

op_strategy = st.tuples(
    st.integers(0, 30),       # arrival gap (cycles)
    st.integers(0, 7),        # bank
    st.integers(0, 15),       # row
    st.integers(0, 7),        # column
    st.booleans(),            # is_write
)


def _build(mechanism, row_policy="open"):
    cfg = ControllerConfig(row_policy=row_policy)
    return MemoryController(0, T, num_ranks=1, num_banks=8,
                            rows_per_bank=4096, controller_config=cfg,
                            mechanism=mechanism, refresh_enabled=False,
                            log_commands=True)


def _drive(mc, ops):
    """Feed ops at their arrival times; run until drained."""
    completed = []
    mc.read_done = completed.append
    cycle = 0
    accepted_reads = 0
    accepted_writes = 0
    for gap, bank, row, col, is_write in ops:
        target = cycle + gap
        while cycle < target:
            cycle += 1
            mc.tick(cycle)
        line = (row * 8 + bank) * 8 + col
        if is_write:
            req = Request(line, RequestType.WRITE, 0)
        else:
            req = Request(line, RequestType.READ, 0)
        req.channel, req.rank, req.bank, req.row = 0, 0, bank, row
        if is_write:
            if mc.enqueue_write(req, cycle):
                accepted_writes += 1
        else:
            if mc.enqueue_read(req, cycle):
                accepted_reads += 1
    deadline = cycle + 20_000
    while (mc.read_q.items or mc.write_q.items or mc.read_events
           or mc._pending_pre) and cycle < deadline:
        cycle += 1
        mc.tick(cycle)
    return completed, accepted_reads, accepted_writes, cycle


class TestFuzzedStreams:
    @given(st.lists(op_strategy, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_baseline_liveness_and_legality(self, ops):
        mc = _build(LatencyMechanism(T))
        completed, reads, writes, _ = _drive(mc, ops)
        assert len(completed) == reads, "every accepted read completes"
        check_command_log(mc.channel.command_log, T)

    @given(st.lists(op_strategy, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_chargecache_liveness_and_legality(self, ops):
        cc = ChargeCache(T, ChargeCacheConfig(time_scale=1024.0),
                         num_cores=1)
        mc = _build(cc)
        completed, reads, writes, _ = _drive(mc, ops)
        assert len(completed) == reads
        check_command_log(mc.channel.command_log, T)

    @given(st.lists(op_strategy, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_closed_row_policy_legality(self, ops):
        mc = _build(LatencyMechanism(T), row_policy="closed")
        completed, reads, writes, _ = _drive(mc, ops)
        assert len(completed) == reads
        check_command_log(mc.channel.command_log, T)

    @given(st.lists(op_strategy, min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_column_command_conservation(self, ops):
        mc = _build(LatencyMechanism(T))
        completed, reads, writes, _ = _drive(mc, ops)
        issued = Counter(c.command for c in mc.channel.command_log)
        # Forwarded reads never issue a DRAM RD.
        assert issued[Command.RD] + mc.stats.forwards == reads
        # Writes may coalesce, never multiply.
        assert issued[Command.WR] <= writes

    @given(st.lists(op_strategy, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_latency_ordering_base_vs_chargecache(self, ops):
        """ChargeCache never increases a stream's drain time by more
        than scheduling noise (it only relaxes constraints).

        The noise bound is one write-to-read turnaround plus a few
        command slots: an earlier PRE (reduced tRAS) can reshuffle
        which requests win FR-FCFS arbitration and insert one extra
        read/write turnaround into the tail of the stream.
        """
        mc_base = _build(LatencyMechanism(T))
        _, _, _, end_base = _drive(mc_base, ops)
        cc = ChargeCache(T, ChargeCacheConfig(time_scale=1024.0), 1)
        mc_cc = _build(cc)
        _, _, _, end_cc = _drive(mc_cc, ops)
        assert end_cc <= end_base + 100
