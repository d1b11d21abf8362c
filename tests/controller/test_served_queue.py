"""The controller's served queue is a maintained field.

``MemoryController._served`` holds the queue :meth:`_select_queue`
last picked.  A push or a RD/WR removal marks it stale, and the next
``tick`` or wake bid that needs it re-selects.  So the write-drain
latch samples the queue lengths at exactly the ticks and bids where a
controller re-selecting at every one of them would (the dense
engine's semantics), and nowhere in between.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import ControllerConfig
from repro.controller import controller as controller_module
from repro.controller.controller import MemoryController
from repro.controller.request import Request, RequestType
from repro.core.timing_policy import LatencyMechanism
from repro.dram.timing import DDR3_1600

from tests.controller.test_controller import make_controller, write_at

_STALE = controller_module._STALE


def test_drain_latch_samples_lengths_at_ticks():
    """A write that arrives between a drain write and the next tick
    keeps the drain on.

    The drain write leaves the write queue at the low watermark; the
    next tick sees one more write, above it.  Re-selecting right at the
    removal would end the drain one write early and serve the queued
    read instead.
    """
    mc = make_controller()
    low, high = mc._wq_low, mc._wq_high
    read = Request(10_000, RequestType.READ)
    read.channel, read.rank, read.bank, read.row = 0, 0, 7, 5
    assert mc.enqueue_read(read, 0)
    for line in range(high):
        write_at(mc, line, bank=line % 4, row=0)
    cycle = 0
    while len(mc.write_q.items) > low:
        cycle += 1
        mc.tick(cycle)
        assert mc._drain_writes
    assert len(mc.write_q.items) == low
    write_at(mc, high, bank=0, row=0, cycle=cycle)
    mc.tick(cycle + 1)
    assert mc._drain_writes
    assert mc._served is mc.write_q
    assert read in mc.read_q.items


class _ReselectEveryCall(MemoryController):
    """The reference: re-selects at every tick and bid."""

    def tick(self, cycle: int) -> None:
        self._served = _STALE
        super().tick(cycle)

    def next_event_cycle(self, cycle: int) -> int:
        self._served = _STALE
        return super().next_event_cycle(cycle)


def _small_controller(cls):
    """Eight-entry queues, so random traffic crosses the write
    watermarks (high 6, low 1) often."""
    cfg = ControllerConfig(read_queue_size=8, write_queue_size=8)
    return cls(0, DDR3_1600, num_ranks=1, num_banks=4, rows_per_bank=64,
               controller_config=cfg, mechanism=LatencyMechanism(DDR3_1600),
               refresh_enabled=False, log_commands=True)


def _request(kind: str, line: int, bank: int, row: int) -> Request:
    req = Request(line, RequestType.READ if kind == "read"
                  else RequestType.WRITE)
    req.channel, req.rank, req.bank, req.row = 0, 0, bank, row
    return req


steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(("read", "write")), st.integers(0, 23),
              st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("tick"), st.integers(1, 12)),
    st.tuples(st.just("bid"))), max_size=120)


@settings(max_examples=200, deadline=None)
@given(program=steps)
def test_served_queue_is_the_fresh_selection(program):
    """After every step of random reads, writes, ticks and bids, a
    non-stale ``_served`` is what :meth:`_select_queue` picks (calling
    it then cannot move the latch: no length changed since the last
    selection), and the controller issues exactly the commands of one
    that re-selects at every tick and bid."""
    mc = _small_controller(MemoryController)
    ref = _small_controller(_ReselectEveryCall)
    cycle = 0
    for step in program:
        if step[0] == "tick":
            for _ in range(step[1]):
                cycle += 1
                mc.tick(cycle)
                ref.tick(cycle)
        elif step[0] == "bid":
            assert mc.next_event_cycle(cycle) == ref.next_event_cycle(cycle)
        else:
            enqueue = "enqueue_read" if step[0] == "read" \
                else "enqueue_write"
            accepted = getattr(mc, enqueue)(_request(*step), cycle)
            assert getattr(ref, enqueue)(_request(*step), cycle) == accepted
        if mc._served is not _STALE:
            assert mc._served is mc._select_queue()
        assert mc._drain_writes == ref._drain_writes
        assert mc.channel.command_log == ref.channel.command_log
