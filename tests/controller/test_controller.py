"""Integration-style tests for the memory controller.

These drive a :class:`MemoryController` directly (no CPU) with a
baseline or ChargeCache mechanism and verify latencies, write
handling, row policies and refresh against first-principles cycle
counts.
"""

import pytest

from repro.config import ChargeCacheConfig, ControllerConfig
from repro.controller.controller import MemoryController
from repro.controller.request import Request, RequestType
from repro.core.chargecache import ChargeCache
from repro.core.timing_policy import LatencyMechanism
from repro.dram.commands import Command
from repro.dram.timing import DDR3_1600

T = DDR3_1600


#: Completion list of each read :func:`read_at` queued, by request id.
_DONE = {}


def _read_done(request):
    _DONE.pop(request.id).append(request)


def make_controller(row_policy="open", mechanism=None, refresh=False):
    cfg = ControllerConfig(row_policy=row_policy)
    mech = mechanism or LatencyMechanism(T)
    mc = MemoryController(0, T, num_ranks=1, num_banks=8,
                          rows_per_bank=4096, controller_config=cfg,
                          mechanism=mech, refresh_enabled=refresh,
                          log_commands=True)
    mc.read_done = _read_done
    return mc


def read_at(mc, line, rank=0, bank=0, row=0, cycle=0, core=0):
    done = []
    req = Request(line, RequestType.READ, core)
    _DONE[req.id] = done
    req.channel, req.rank, req.bank, req.row = 0, rank, bank, row
    assert mc.enqueue_read(req, cycle)
    return req, done


def write_at(mc, line, rank=0, bank=0, row=0, cycle=0, core=0):
    req = Request(line, RequestType.WRITE, core)
    req.channel, req.rank, req.bank, req.row = 0, rank, bank, row
    assert mc.enqueue_write(req, cycle)
    return req

def precharges(mc):
    """PREs the controller has issued, counted from its command log."""
    return sum(issued.command is Command.PRE
               for issued in mc.channel.command_log)


def run_until(mc, predicate, start=1, limit=5000):
    cycle = start
    while cycle < limit:
        mc.tick(cycle)
        if predicate():
            return cycle
        cycle += 1
    raise AssertionError("condition not reached within limit")


class TestReadLatency:
    def test_row_miss_latency(self):
        """Closed bank: ACT + tRCD + tCL + tBL."""
        mc = make_controller()
        req, done = read_at(mc, line=1)
        run_until(mc, lambda: done)
        # ACT at cycle 1, RD at 1+tRCD, data at RD+tCL+tBL, callback
        # fires on the following tick.
        expected_done = 1 + T.tRCD + T.tCL + T.tBL
        assert req.done_cycle == expected_done
        assert req.needed_act

    def test_row_hit_latency(self):
        """Second read to the same row skips the activation."""
        mc = make_controller()
        req1, done1 = read_at(mc, line=1, row=7)
        run_until(mc, lambda: done1)
        req2, done2 = read_at(mc, line=2, row=7,
                              cycle=req1.done_cycle)
        run_until(mc, lambda: done2, start=req1.done_cycle)
        assert not req2.needed_act
        service = req2.done_cycle - req2.enqueue_cycle
        assert service <= T.tCL + T.tBL + 2
        assert mc.stats.read_row_hits == 1

    def test_row_conflict_latency(self):
        """Conflict: PRE + tRP + ACT + tRCD + data."""
        mc = make_controller()
        req1, done1 = read_at(mc, line=1, row=7)
        run_until(mc, lambda: done1)
        start = req1.done_cycle
        req2, done2 = read_at(mc, line=2, row=8, cycle=start)
        run_until(mc, lambda: done2, start=start)
        # The PRE cannot issue before tRAS from the first ACT (cycle 1).
        pre_cycle = max(start + 1, 1 + T.tRAS)
        expected = pre_cycle + T.tRP + T.tRCD + T.tCL + T.tBL
        assert req2.done_cycle == expected

    def test_chargecache_hit_shortens_conflict(self):
        """Re-activating a recently precharged row saves 4 tRCD cycles."""
        def conflict_latency(mech):
            mc = make_controller(mechanism=mech)
            # Open row 7, then conflict with row 8, then return to 7.
            r1, d1 = read_at(mc, 1, row=7)
            run_until(mc, lambda: d1)
            r2, d2 = read_at(mc, 2, row=8, cycle=r1.done_cycle)
            run_until(mc, lambda: d2, start=r1.done_cycle)
            r3, d3 = read_at(mc, 3, row=7, cycle=r2.done_cycle)
            run_until(mc, lambda: d3, start=r2.done_cycle)
            return r3.done_cycle - r3.enqueue_cycle, mc

        base_latency, base_mc = conflict_latency(LatencyMechanism(T))
        cc = ChargeCache(T, ChargeCacheConfig(), num_cores=1)
        cc_latency, cc_mc = conflict_latency(cc)
        assert cc_mc.stats.act_reduced == 1
        assert base_mc.stats.act_reduced == 0
        assert base_latency - cc_latency == 4  # tRCD reduction


class TestWrites:
    def test_write_drains_when_read_queue_empty(self):
        mc = make_controller()
        write_at(mc, line=1)
        run_until(mc, lambda: mc.stats.writes == 1)

    def test_write_coalescing(self):
        mc = make_controller()
        write_at(mc, line=1)
        w2 = Request(1, RequestType.WRITE, 0)
        w2.channel, w2.rank, w2.bank, w2.row = 0, 0, 0, 0
        mc.enqueue_write(w2, 0)
        assert len(mc.write_q) == 1
        assert w2 not in mc.write_q.items

    def test_read_forwarded_from_write_queue(self):
        mc = make_controller()
        write_at(mc, line=9)
        req, done = read_at(mc, line=9)
        run_until(mc, lambda: done)
        assert req.done_cycle - req.enqueue_cycle == 1
        assert mc.stats.forwards == 1
        assert mc.stats.reads == 0  # never touched DRAM

    def test_high_watermark_triggers_drain(self):
        mc = make_controller()
        # Keep the read queue busy while writes pile past the mark.
        for i in range(52):  # high watermark = 0.8 * 64 = 51
            write_at(mc, line=100 + i, row=i % 4, bank=i % 8)
        read_at(mc, line=1, row=2000 % 4096)
        run_until(mc, lambda: mc.stats.writes > 0)


class TestRowPolicies:
    def test_open_policy_leaves_row_open(self):
        mc = make_controller(row_policy="open")
        req, done = read_at(mc, 1, row=5)
        run_until(mc, lambda: done)
        mc.tick(req.done_cycle + 1)
        assert mc.channel.bank(0, 0).open_row == 5
        assert precharges(mc) == 0

    def test_closed_policy_precharges_idle_row(self):
        mc = make_controller(row_policy="closed")
        req, done = read_at(mc, 1, row=5)
        run_until(mc, lambda: precharges(mc) == 1)
        assert mc.channel.bank(0, 0).open_row is None

    def test_closed_policy_waits_for_queued_hits(self):
        mc = make_controller(row_policy="closed")
        read_at(mc, 1, row=5)
        read_at(mc, 2, row=5)
        run_until(mc, lambda: mc.stats.reads == 2)
        # Both hits serviced from one activation.
        assert mc.stats.activations == 1


class TestRefresh:
    def test_refresh_issues_at_trefi(self):
        mc = make_controller(refresh=True)
        run_until(mc, lambda: mc.stats.refreshes == 1, limit=T.tREFI + 200)

    def test_refresh_closes_open_rows_first(self):
        mc = make_controller(refresh=True)
        req, done = read_at(mc, 1, row=5)
        run_until(mc, lambda: done)
        run_until(mc, lambda: mc.stats.refreshes == 1,
                  start=req.done_cycle, limit=T.tREFI + 500)
        assert precharges(mc) >= 1

    def test_reads_resume_after_refresh(self):
        mc = make_controller(refresh=True)
        run_until(mc, lambda: mc.stats.refreshes == 1, limit=T.tREFI + 200)
        req, done = read_at(mc, 1, cycle=T.tREFI + 300)
        run_until(mc, lambda: done, start=T.tREFI + 300,
                  limit=T.tREFI + 1000)


class TestMechanismWiring:
    def test_insert_on_pre_lookup_on_act(self):
        cc = ChargeCache(T, ChargeCacheConfig(), num_cores=1)
        mc = make_controller(mechanism=cc)
        r1, d1 = read_at(mc, 1, row=7)
        run_until(mc, lambda: d1)
        r2, d2 = read_at(mc, 2, row=8, cycle=r1.done_cycle)
        run_until(mc, lambda: d2, start=r1.done_cycle)
        assert len(cc.tables[0]) == 1  # row 7 inserted when precharged
        r3, d3 = read_at(mc, 3, row=7, cycle=r2.done_cycle)
        run_until(mc, lambda: d3, start=r2.done_cycle)
        assert cc.hits == 1

    def test_stats_reset(self):
        mc = make_controller()
        req, done = read_at(mc, 1)
        run_until(mc, lambda: done)
        mc.reset_stats(req.done_cycle)
        assert mc.stats.reads == 0
        assert mc.active_cycles(req.done_cycle) == 0


class TestErrors:
    def test_wrong_channel_rejected(self):
        mc = make_controller()
        req = Request(1, RequestType.READ, 0)
        req.channel = 3
        with pytest.raises(ValueError):
            mc.enqueue_read(req, 0)

    def test_full_read_queue_rejects(self):
        mc = make_controller()
        for i in range(64):
            req = Request(i, RequestType.READ, 0)
            req.channel, req.rank, req.bank, req.row = 0, 0, i % 8, i
            assert mc.enqueue_read(req, 0)
        req = Request(999, RequestType.READ, 0)
        req.channel, req.rank, req.bank, req.row = 0, 0, 0, 9
        assert not mc.enqueue_read(req, 0)
