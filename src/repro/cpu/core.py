"""Trace-driven core model (Ramulator-style, paper Table 1).

The core dispatches up to ``issue_width`` instructions per CPU cycle
into a ``window_size``-entry instruction window.  Non-memory
instructions ("bubbles") retire immediately once every older load has
completed (in-order retirement barrier).  Loads occupy an MSHR until
their data returns; the window fills behind an outstanding load, and a
full window stalls dispatch - this is how DRAM latency becomes lost
IPC, and what ChargeCache's lower tRCD/tRAS recovers.

For simulation speed the core advances *analytically* between memory
events instead of ticking every CPU cycle: bubble stretches are
dispatched in closed form, and a blocked core sleeps until a completion
callback wakes it.  The observable behaviour (dispatch cycles, stall
conditions, MSHR occupancy) matches a per-cycle implementation; see
``tests/cpu/test_core.py`` for the equivalence checks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from repro.cpu.trace import TraceRecord

#: Reasons a core may be unable to dispatch.
BLOCK_NONE = 0
BLOCK_WINDOW = 1   # instruction window full behind an incomplete load
BLOCK_MSHR = 2     # all MSHRs in use
BLOCK_DEP = 3      # dependent access waiting for earlier loads
BLOCK_REJECT = 4   # memory system refused the access (queue full)


class Core:
    """One trace-driven core.

    Args:
        core_id: index used for request tagging and statistics.
        trace: iterator of :class:`TraceRecord` (must not be exhausted
            before the instruction limit is reached; use
            :func:`repro.cpu.trace.looped` for finite traces).
        issue: callback ``issue(core_id, line_address, is_write,
            token) -> bool`` that hands an access to the memory
            hierarchy.  ``token`` identifies the load for the later
            :meth:`on_load_complete` call.  A False return means the
            hierarchy cannot accept the access this cycle.
        issue_width / window_size / mshrs: Table 1 parameters.
        instruction_limit: retire target after which the core is
            *finished* (it keeps executing to preserve memory pressure
            in multi-core runs, but its IPC is frozen).
    """

    def __init__(self, core_id: int, trace: Iterator[TraceRecord],
                 issue: Callable[[int, int, bool, int], bool],
                 issue_width: int = 3, window_size: int = 128,
                 mshrs: int = 8, instruction_limit: int = 100_000):
        self.core_id = core_id
        self.trace = iter(trace)
        self.issue = issue
        self.issue_width = issue_width
        self.window_size = window_size
        self.mshrs = mshrs
        self.instruction_limit = instruction_limit

        self.now = 0                 # CPU cycle, advanced by run_until
        self.dispatched = 0          # instructions entered into the window
        #: In-order retirement barrier: everything older than the
        #: oldest incomplete load has retired.  A maintained field,
        #: ``_inflight[0][0]`` while loads are in flight, else
        #: ``dispatched``; updated wherever either of those changes
        #: (the dispatch paths and :meth:`on_load_complete`).
        self.retired = 0
        self._slot = 0               # dispatch slots used in current cycle
        self.block_reason = BLOCK_NONE
        self._pending: Optional[TraceRecord] = None
        self._bubbles_left = 0
        # Outstanding loads: deque of [dispatch_index, done] pairs
        # (in dispatch order); _done_tokens maps token -> pair.
        self._inflight = deque()
        self._by_token = {}
        self._next_token = 0
        self.mshr_used = 0
        # Statistics.
        self.loads_issued = 0
        self.stores_issued = 0
        self.stall_cycles = 0
        self.finished = False
        self.finish_cycle: Optional[int] = None
        self.stats_start_cycle = 0
        self._stats_start_retired = 0

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    @property
    def window_occupancy(self) -> int:
        return self.dispatched - self.retired

    @property
    def retired_since_reset(self) -> int:
        return self.retired - self._stats_start_retired

    # ------------------------------------------------------------------
    # Memory-completion callback
    # ------------------------------------------------------------------

    def on_load_complete(self, token: int) -> None:
        """Called by the memory hierarchy when a load's data arrives."""
        entry = self._by_token.pop(token, None)
        if entry is None:
            raise KeyError(f"unknown load token {token}")
        entry[1] = True
        self.mshr_used -= 1
        inflight = self._inflight
        while inflight and inflight[0][1]:
            inflight.popleft()
        self.retired = inflight[0][0] if inflight else self.dispatched
        # Any stall except an explicit reject can now be re-evaluated.
        if self.block_reason in (BLOCK_WINDOW, BLOCK_MSHR, BLOCK_DEP):
            self.block_reason = BLOCK_NONE
        if not self.finished and self.retired - self._stats_start_retired \
                >= self.instruction_limit:
            self.finished = True
            self.finish_cycle = self.now

    def retry_rejected(self) -> None:
        """Clear a memory-system rejection (called each memory cycle)."""
        if self.block_reason == BLOCK_REJECT:
            self.block_reason = BLOCK_NONE

    # ------------------------------------------------------------------
    # Event-engine wake-up query
    # ------------------------------------------------------------------

    def next_event_cpu_cycle(self) -> Optional[int]:
        """Latest CPU cycle the event engine may sleep through.

        Returns a CPU cycle ``X`` such that this core performs no
        externally visible action (memory-system ``issue`` call or
        instruction-limit crossing) while ``cpu_now <= X``; the system
        must step the core again at the first bus cycle whose CPU time
        exceeds ``X``.  Returns ``None`` when the core is quiescent
        until a load-completion callback (which the memory side already
        schedules a wake-up for).

        The bound is exact for uninterrupted bubble stretches - it is
        derived from the same closed-form slot arithmetic
        :meth:`_dispatch_bubbles` uses - and conservative (early)
        otherwise, which preserves dense-engine equivalence: waking at
        a cycle where nothing happens is exactly what the dense engine
        does every cycle.
        """
        if self.block_reason == BLOCK_REJECT:
            # Rejected stores retry (and re-count LLC misses) every
            # memory cycle in the dense engine; replicate that.
            return self.now
        if self.block_reason != BLOCK_NONE:
            return None  # woken by on_load_complete
        bubbles = self._bubbles_left
        if not bubbles:
            # Either a memory access is pending dispatch, or the next
            # trace record has not been fetched yet: step next cycle.
            return self.now
        if self._inflight:
            room = self.window_size - (self.dispatched - self.retired)
            if room <= bubbles:
                # The window fills behind the outstanding load before
                # the bubble stretch ends; the core blocks without any
                # memory-visible action until a completion arrives.
                return None
            # Retirement is pinned by the oldest in-flight load, so no
            # instruction-limit crossing can happen before then either.
            return self.now + (self._slot + bubbles) // self.issue_width
        # Free-running bubble stretch: the next access dispatch attempt
        # lands one issue slot after the last bubble.
        wake = self.now + (self._slot + bubbles) // self.issue_width
        if not self.finished:
            needed = self.instruction_limit \
                - (self.retired - self._stats_start_retired)
            if needed <= bubbles:
                # The instruction limit is crossed inside this stretch;
                # finish_cycle is stamped at the end of the per-cycle
                # dispatch chunk containing the crossing, so the engine
                # must visit that exact bus cycle.
                cross = self.now - (-(self._slot + needed)
                                    // self.issue_width)
                wake = min(wake, cross - 1)
        return wake

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_until(self, target_cycle: int) -> None:
        """Advance the core to ``target_cycle`` CPU cycles."""
        while self.now < target_cycle:
            if self.block_reason != BLOCK_NONE:
                self.stall_cycles += target_cycle - self.now
                self.now = target_cycle
                return
            if self._bubbles_left:
                self._dispatch_bubbles(target_cycle)
                continue
            if self._pending is not None:
                if not self._dispatch_access(self._pending):
                    self.stall_cycles += target_cycle - self.now
                    self.now = target_cycle
                    return
                self._pending = None
                continue
            record = next(self.trace, None)
            if record is None:
                raise RuntimeError(
                    f"core {self.core_id}: trace exhausted after "
                    f"{self.dispatched} instructions; use an infinite "
                    "or looped trace")
            if record.bubbles:
                self._bubbles_left = record.bubbles
            self._pending = record

    def _dispatch_bubbles(self, target_cycle: int) -> None:
        """Dispatch as many bubbles as width/window/time allow."""
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
            # Can't fit another instruction this quantum; consume time.
            self.stall_cycles += budget_cycles
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

    def _dispatch_access(self, record: TraceRecord) -> bool:
        """Dispatch one load/store; returns False when stalled."""
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
            self.stores_issued += 1
            if not inflight:
                self.retired = self.dispatched
        else:
            # The barrier stays put: it was already at this load's
            # index when nothing was in flight.
            self._next_token += 1
            entry = [self.dispatched - 1, False]
            inflight.append(entry)
            self._by_token[token] = entry
            self.mshr_used += 1
            self.loads_issued += 1
        if not self.finished and self.retired - self._stats_start_retired \
                >= self.instruction_limit:
            self.finished = True
            self.finish_cycle = self.now
        return True

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def reset_stats(self, cycle: int) -> None:
        """Restart IPC accounting at ``cycle`` (end of warmup)."""
        self.stats_start_cycle = cycle
        self._stats_start_retired = self.retired
        self.loads_issued = 0
        self.stores_issued = 0
        self.stall_cycles = 0
        self.finished = False
        self.finish_cycle = None

    def ipc(self) -> float:
        """Post-warmup IPC, frozen at the instruction limit."""
        end = self.finish_cycle if self.finish_cycle is not None else self.now
        cycles = end - self.stats_start_cycle
        retired = min(self.retired_since_reset, self.instruction_limit)
        return retired / cycles if cycles > 0 else 0.0
