"""Differential test: the one-loop core against the three-helper core.

``Core.run_until`` fetches a record, dispatches its bubble stretch in
closed form and dispatches its memory access in one loop.  The
reference below keeps the earlier formulation verbatim as an oracle:
``run_until`` dispatching through ``_dispatch_bubbles`` and
``_dispatch_access``, each a separate call per stretch or access.
Hypothesis drives both cores with identical inputs (random records,
including zero-bubble and dependent accesses; random window, MSHR and
instruction-limit sizes; random run targets, rejections, completion
orders and ``reset_stats`` calls) and compares their whole state and
the accesses they issued, with the core's clock at each issue, after
every step.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cpu.core import (
    BLOCK_DEP,
    BLOCK_MSHR,
    BLOCK_NONE,
    BLOCK_REJECT,
    BLOCK_WINDOW,
    Core,
)
from repro.cpu.trace import looped, trace_from_tuples


class ReferenceCore(Core):
    """The core with the three-helper dispatch loop."""

    def run_until(self, target_cycle: int) -> None:
        while self.now < target_cycle:
            if self.block_reason != BLOCK_NONE:
                self.now = target_cycle
                return
            if self._bubbles_left:
                self._dispatch_bubbles(target_cycle)
                continue
            if self._pending is not None:
                if not self._dispatch_access(self._pending):
                    self.now = target_cycle
                    return
                self._pending = None
                continue
            record = next(self.trace, None)
            if record is None:
                raise RuntimeError("trace exhausted")
            if record.bubbles:
                self._bubbles_left = record.bubbles
            self._pending = record

    def _dispatch_bubbles(self, target_cycle: int) -> None:
        budget_cycles = target_cycle - self.now
        slots = budget_cycles * self.issue_width - self._slot
        count = min(self._bubbles_left, slots)
        inflight = self._inflight
        if inflight:
            room = self.window_size - (self.dispatched - self.retired)
            if room <= 0:
                self.block_reason = BLOCK_WINDOW
                return
            count = min(count, room)
        if count <= 0:
            self.now = target_cycle
            self._slot = 0
            return
        self._bubbles_left -= count
        self.dispatched += count
        if not inflight:
            self.retired = self.dispatched
        total_slots = self._slot + count
        self.now += total_slots // self.issue_width
        self._slot = total_slots % self.issue_width
        if not self.finished and self.retired - self._stats_start_retired \
                >= self.instruction_limit:
            self.finished = True
            self.finish_cycle = self.now

    def _dispatch_access(self, record) -> bool:
        inflight = self._inflight
        if record.dependent and inflight:
            self.block_reason = BLOCK_DEP
            return False
        if inflight and self.dispatched - self.retired >= self.window_size:
            self.block_reason = BLOCK_WINDOW
            return False
        if not record.is_write and self.mshr_used >= self.mshrs:
            self.block_reason = BLOCK_MSHR
            return False
        token = self._next_token
        if not self.issue(self.core_id, record.line_address,
                          record.is_write, token):
            self.block_reason = BLOCK_REJECT
            return False
        self.dispatched += 1
        self._slot += 1
        if self._slot >= self.issue_width:
            self._slot = 0
            self.now += 1
        if record.is_write:
            if not inflight:
                self.retired = self.dispatched
        else:
            self._next_token += 1
            entry = [self.dispatched - 1, False]
            inflight.append(entry)
            self._by_token[token] = entry
            self.mshr_used += 1
        if not self.finished and self.retired - self._stats_start_retired \
                >= self.instruction_limit:
            self.finished = True
            self.finish_cycle = self.now
        return True


class Memory:
    """Accepts or rejects every access; logs accepted ones with the
    issuing core's clock."""

    def __init__(self):
        self.accept = True
        self.core = None
        self.issued = []

    def __call__(self, core_id, line, is_write, token):
        if not self.accept:
            return False
        self.issued.append((line, is_write, token, self.core.now))
        return True


STATE = ("now", "_slot", "dispatched", "retired", "block_reason",
         "finished", "finish_cycle", "_bubbles_left", "_pending",
         "mshr_used", "_next_token")

# Zero-bubble records are common: back-to-back accesses run the access
# path without a bubble stretch in between.
record = st.tuples(st.one_of(st.just(0), st.integers(0, 60)),
                   st.integers(0, 63), st.booleans(), st.booleans())
step = st.tuples(
    st.sampled_from(("run", "run", "complete", "reject", "accept",
                     "retry", "reset")),
    st.integers(0, 1 << 16))


@given(records=st.lists(record, min_size=1, max_size=30),
       steps=st.lists(step, max_size=80),
       width=st.integers(1, 4), window=st.integers(1, 32),
       mshrs=st.integers(1, 8), limit=st.integers(1, 400))
@settings(max_examples=300, deadline=None)
def test_one_loop_core_matches_three_helper_core(records, steps, width,
                                                 window, mshrs, limit):
    trace = trace_from_tuples(records)
    cores, memories = [], []
    for cls in (Core, ReferenceCore):
        memory = Memory()
        core = cls(0, looped(trace), memory, issue_width=width,
                   window_size=window, mshrs=mshrs,
                   instruction_limit=limit)
        memory.core = core
        cores.append(core)
        memories.append(memory)
    outstanding = []   # load tokens issued and not yet completed

    def check():
        new, ref = cores
        for name in STATE:
            assert getattr(new, name) == getattr(ref, name), name
        assert memories[0].issued == memories[1].issued

    for kind, n in steps:
        if kind == "run":
            before = len(memories[0].issued)
            target = cores[0].now + n % 60
            for core in cores:
                core.run_until(target)
            outstanding += [token for _, is_write, token, _
                            in memories[0].issued[before:]
                            if not is_write]
        elif kind == "complete" and outstanding:
            token = outstanding.pop(n % len(outstanding))
            for core in cores:
                core.on_load_complete(token)
        elif kind in ("reject", "accept"):
            for memory in memories:
                memory.accept = kind == "accept"
        elif kind == "retry":
            for core in cores:
                core.retry_rejected()
        elif kind == "reset":
            for core in cores:
                core.reset_stats(core.now)
        check()


def test_reject_then_retry_issues_at_the_same_cycle():
    """A rejected access blocks both cores and is issued once on the
    retry, at the same clock."""
    trace = trace_from_tuples([(5, 1, True), (0, 2, False)])
    cores, memories = [], []
    for cls in (Core, ReferenceCore):
        memory = Memory()
        memory.accept = False
        core = cls(0, looped(trace), memory)
        memory.core = core
        core.run_until(4)
        assert core.block_reason == BLOCK_REJECT
        memory.accept = True
        core.retry_rejected()
        core.run_until(8)
        cores.append(core)
        memories.append(memory)
    assert memories[0].issued == memories[1].issued != []
    assert cores[0].now == cores[1].now == 8
