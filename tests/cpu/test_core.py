"""Unit tests for the trace-driven core model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.core import (
    BLOCK_DEP,
    BLOCK_MSHR,
    BLOCK_NONE,
    BLOCK_REJECT,
    BLOCK_WINDOW,
    Core,
)
from repro.cpu.trace import TraceRecord, looped, trace_from_tuples


def _ipc(core):
    """Oracle: post-warmup IPC, frozen at the instruction limit."""
    end = core.finish_cycle if core.finish_cycle is not None else core.now
    cycles = end - core.stats_start_cycle
    retired = min(core.retired_since_reset, core.instruction_limit)
    return retired / cycles if cycles > 0 else 0.0


class Memory:
    """Scriptable memory-system stub."""

    def __init__(self, accept=True):
        self.accept = accept
        self.issued = []

    def __call__(self, core_id, line, is_write, token):
        if not self.accept:
            return False
        self.issued.append((line, is_write, token))
        return True


def make_core(records, memory=None, **kwargs):
    memory = memory or Memory()
    core = Core(0, looped(records), memory.issue
                if hasattr(memory, "issue") else memory, **kwargs)
    return core, memory


class TestBubbleDispatch:
    def test_issue_width_limits_rate(self):
        records = trace_from_tuples([(300, 0x1, False)])
        core, _ = make_core(records, instruction_limit=300)
        core.run_until(50)
        # 3-wide: 50 cycles -> at most 150 instructions.
        assert core.dispatched == 150

    def test_ipc_of_pure_compute_is_issue_width(self):
        records = trace_from_tuples([(3000, 0x1, False)])
        core, _ = make_core(records, instruction_limit=900)
        core.run_until(301)
        assert core.finished
        assert _ipc(core) == pytest.approx(3.0, rel=0.05)


class TestLoads:
    def test_load_issued_to_memory(self):
        records = trace_from_tuples([(1, 0x10, False),
                                     (100_000, 0x11, False)])
        core, mem = make_core(records)
        core.run_until(5)
        assert mem.issued and mem.issued[0][0] == 0x10
        assert core.mshr_used == 1

    def test_mshr_limit_blocks(self):
        records = trace_from_tuples([(0, i, False) for i in range(10)])
        core, mem = make_core(records, mshrs=8)
        core.run_until(20)
        assert core.mshr_used == 8
        assert core.block_reason == BLOCK_MSHR

    def test_completion_frees_mshr_and_unblocks(self):
        records = trace_from_tuples([(0, i, False) for i in range(10)])
        core, mem = make_core(records, mshrs=8)
        core.run_until(20)
        token = mem.issued[0][2]
        core.on_load_complete(token)
        assert core.mshr_used == 7
        assert core.block_reason == BLOCK_NONE

    def test_unknown_token_rejected(self):
        records = trace_from_tuples([(0, 1, False)])
        core, _ = make_core(records)
        core.run_until(5)
        with pytest.raises(KeyError):
            core.on_load_complete(999)


class TestWindow:
    def test_window_fills_behind_incomplete_load(self):
        records = trace_from_tuples([(0, 0x10, False), (1000, 0x11, False)])
        core, mem = make_core(records, window_size=16)
        core.run_until(100)
        # Load never completes: at most window_size instructions in
        # flight behind it.
        assert core.dispatched - core.retired == 16
        assert core.block_reason == BLOCK_WINDOW

    def test_retirement_barrier(self):
        records = trace_from_tuples([(0, 0x10, False), (1000, 0x11, False)])
        core, mem = make_core(records, window_size=16)
        core.run_until(100)
        assert core.retired == 0  # everything waits on the load
        core.on_load_complete(mem.issued[0][2])
        assert core.retired == core.dispatched


class TestDependentLoads:
    def test_dependent_load_serialises(self):
        records = trace_from_tuples([
            (0, 0x10, False, True),
            (0, 0x11, False, True),
        ])
        core, mem = make_core(records)
        core.run_until(50)
        assert len(mem.issued) == 1  # second waits for first
        assert core.block_reason == BLOCK_DEP
        core.on_load_complete(mem.issued[0][2])
        core.run_until(51)
        assert len(mem.issued) == 2


class TestStores:
    def test_store_does_not_use_mshr(self):
        records = trace_from_tuples([(0, i, True) for i in range(20)])
        core, mem = make_core(records, instruction_limit=10)
        core.run_until(30)
        assert core.mshr_used == 0
        assert len(mem.issued) >= 10

    def test_store_retires_immediately(self):
        records = trace_from_tuples([(0, 1, True), (5, 2, False)])
        core, _ = make_core(records)
        core.run_until(3)
        assert core.retired >= 1


class TestRejection:
    def test_rejected_access_blocks_then_retries(self):
        records = trace_from_tuples([(0, 0x10, False)])
        mem = Memory(accept=False)
        core, _ = make_core(records, memory=mem)
        core.run_until(10)
        assert core.block_reason == BLOCK_REJECT
        mem.accept = True
        core.retry_rejected()
        core.run_until(12)
        assert mem.issued


class TestAccounting:
    def test_finish_freezes_ipc(self):
        records = trace_from_tuples([(299, 0x1, False)])
        core, mem = make_core(records, instruction_limit=300)
        core.run_until(100)
        token = mem.issued[0][2]
        core.on_load_complete(token)
        core.run_until(200)
        assert core.finished
        ipc_at_finish = _ipc(core)
        core.run_until(500)
        assert _ipc(core) == ipc_at_finish

    def test_reset_stats_restarts_accounting(self):
        records = trace_from_tuples([(3000, 0x1, False)])
        core, _ = make_core(records, instruction_limit=600)
        core.run_until(100)
        core.reset_stats(100)
        assert core.retired_since_reset == 0
        core.run_until(301)
        assert core.finished
        assert _ipc(core) == pytest.approx(3.0, rel=0.05)

    def test_exhausted_trace_raises(self):
        core = Core(0, iter([TraceRecord(1, 1, False)]), Memory())
        with pytest.raises(RuntimeError, match="exhausted"):
            core.run_until(100)


def _oracle_retired(core):
    """The retirement barrier recomputed from scratch: the formula the
    maintained ``Core.retired`` replaced."""
    inflight = core._inflight
    return min(core.dispatched, inflight[0][0]) if inflight \
        else core.dispatched


class TestMaintainedRetired:
    """``Core.retired`` is a field updated where it changes; it must
    equal the from-scratch formula after every externally driven step,
    whatever order loads complete in."""

    # Bubble-free records are common: back-to-back accesses are where
    # the barrier moves without a bubble stretch to resynchronize it.
    record = st.tuples(st.one_of(st.just(0), st.integers(0, 40)),
                       st.integers(0, 63), st.booleans(), st.booleans())
    step = st.tuples(
        st.sampled_from(("run", "complete", "reject", "accept", "retry",
                         "reset")),
        st.integers(0, 1 << 16))

    @given(records=st.lists(record, min_size=1, max_size=30),
           steps=st.lists(step, max_size=80),
           window=st.integers(1, 32), mshrs=st.integers(1, 8),
           limit=st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, records, steps, window, mshrs, limit):
        memory = Memory()
        core, _ = make_core(trace_from_tuples(records), memory,
                            window_size=window, mshrs=mshrs,
                            instruction_limit=limit)
        outstanding = []   # load tokens issued and not yet completed

        def check():
            assert core.retired == _oracle_retired(core)
            # The inlined finish test fired whenever it had to.
            assert core.finished or \
                core.retired_since_reset < core.instruction_limit

        for kind, n in steps:
            if kind == "run":
                before = len(memory.issued)
                core.run_until(core.now + 1 + n % 50)
                outstanding += [token for _, is_write, token
                                in memory.issued[before:] if not is_write]
            elif kind == "complete" and outstanding:
                core.on_load_complete(outstanding.pop(n % len(outstanding)))
            elif kind in ("reject", "accept"):
                memory.accept = kind == "accept"
            elif kind == "retry":
                core.retry_rejected()
            elif kind == "reset":
                core.reset_stats(core.now)
            check()
