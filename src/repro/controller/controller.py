"""The per-channel memory controller.

Responsibilities (paper Table 1 configuration):

* 64-entry read and write queues with write coalescing and
  read-from-write-queue forwarding.
* FR-FCFS scheduling with watermark-based write draining.
* Open-row / closed-row buffer management.
* Refresh: one REF per rank every tREFI, preceded by precharging.
* Hosting the latency mechanism: it is consulted on each ACT (lookup)
  and each PRE (insert) and nowhere else; ChargeCache catches its
  invalidation sweep up inside those two hooks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import WRITE_HIGH_WATERMARK, WRITE_LOW_WATERMARK
from repro.controller.queues import RequestQueue
from repro.controller.request import Request
from repro.controller.row_policy import make_row_policy
from repro.controller.scheduler import Candidate, FRFCFSScheduler
from repro.core.timing_policy import LatencyMechanism
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import NEVER, TimingParameters

# Enum members as plain globals: ``_execute`` tests them per command.
_ACT, _PRE, _RD, _WR = Command.ACT, Command.PRE, Command.RD, Command.WR

#: ``MemoryController._served`` after a queue length changed: the next
#: ``tick`` or bid that needs the served queue re-selects it.
_STALE = object()


class ControllerStats:
    """Post-warmup event counters for one channel."""

    __slots__ = ("reads", "writes", "read_row_hits", "write_row_hits",
                 "activations", "act_reduced", "refreshes",
                 "forwards", "read_latency_sum", "read_count",
                 "active_cycle_base", "rank_active_base")

    def __init__(self):
        self.reset(0, 0)

    def reset(self, active_cycle_base: int,
              rank_active_base: int = 0) -> None:
        self.reads = 0
        self.writes = 0
        self.read_row_hits = 0
        self.write_row_hits = 0
        self.activations = 0
        self.act_reduced = 0
        self.refreshes = 0
        self.forwards = 0
        self.read_latency_sum = 0
        self.read_count = 0
        self.active_cycle_base = active_cycle_base
        self.rank_active_base = rank_active_base


class MemoryController:
    """Command-issue engine for one memory channel."""

    def __init__(self, channel_index: int, timing: TimingParameters,
                 num_ranks: int, num_banks: int, rows_per_bank: int,
                 controller_config, mechanism: LatencyMechanism,
                 refresh_enabled: bool = True, rltl_probe=None,
                 log_commands: bool = False,
                 refresh: Optional[RefreshScheduler] = None):
        controller_config.validate()
        self.index = channel_index
        self.timing = timing
        self.config = controller_config
        self.channel = Channel(timing, num_ranks, num_banks,
                               index=channel_index,
                               log_commands=log_commands)
        if refresh is None:
            refresh = RefreshScheduler(timing, num_ranks, rows_per_bank,
                                       enabled=refresh_enabled)
        self.refresh = refresh
        self.mechanism = mechanism
        self.rltl_probe = rltl_probe
        self.scheduler = FRFCFSScheduler()
        self.row_policy = make_row_policy(controller_config.row_policy)
        self.read_q = RequestQueue(controller_config.read_queue_size)
        self.write_q = RequestQueue(controller_config.write_queue_size)
        self._drain_writes = False
        #: The queue :meth:`_select_queue` last picked, or ``_STALE``
        #: once a push or removal changed a queue length since.
        self._served = _STALE
        self._wq_high = int(WRITE_HIGH_WATERMARK
                            * controller_config.write_queue_size)
        self._wq_low = int(WRITE_LOW_WATERMARK
                           * controller_config.write_queue_size)
        self._pending_pre: Set[Tuple[int, int]] = set()
        #: A lower bound on ``next_pre`` over ``_pending_pre``'s banks
        #: (a bank's ``next_pre`` never falls): ``_execute`` folds in
        #: each bank it adds, a full walk of the set stores its minimum.
        self._pre_gate = NEVER
        self._act_owner: Dict[Tuple[int, int], int] = {}
        #: Heap of ``(done_cycle, seq, request)`` read completions.
        #: Read-only outside the controller; the event engine peeks at
        #: its head to tell whether a visit fires a completion.
        self.read_events: List[Tuple[int, int, Request]] = []
        #: ``read_done(request)`` as each READ's data arrives: the
        #: LLC's fill, set once by the LLC it serves (None: unwired).
        self.read_done: Optional[Callable[[Request], None]] = None
        self._event_seq = itertools.count()
        self.stats = ControllerStats()
        self._num_ranks = num_ranks
        self._last_issue_cycle = -1
        self._issue_count = 0

    # ------------------------------------------------------------------
    # Request entry points (called by the cache hierarchy / system)
    # ------------------------------------------------------------------

    def enqueue_read(self, request: Request, cycle: int) -> bool:
        """Queue a read; may be served by write-queue forwarding."""
        if request.channel != self.index:
            raise ValueError("request routed to the wrong channel")
        forwarded = self.write_q.find_line(request.line_address)
        if forwarded is not None:
            # Serve from the write queue: newest data, ~one-cycle latency.
            request.enqueue_cycle = cycle
            request.done_cycle = cycle + 1
            self.stats.forwards += 1
            heapq.heappush(self.read_events,
                           (cycle + 1, next(self._event_seq), request))
            return True
        if not self.read_q.push(request, cycle):
            return False
        self._served = _STALE
        if self._pending_pre:
            self._cancel_pending_pre_if_hit(request)
        return True

    def enqueue_write(self, request: Request, cycle: int) -> bool:
        """Queue a (posted) write; coalesces with queued writes."""
        if request.channel != self.index:
            raise ValueError("request routed to the wrong channel")
        if self.write_q.coalesce_write(request.line_address):
            return True
        if not self.write_q.push(request, cycle):
            return False
        self._served = _STALE
        if self._pending_pre:
            self._cancel_pending_pre_if_hit(request)
        return True

    def _cancel_pending_pre_if_hit(self, request: Request) -> None:
        key = (request.rank, request.bank)
        if key in self._pending_pre:
            bank = self.channel.bank(request.rank, request.bank)
            if bank.open_row == request.row:
                self._pending_pre.discard(key)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Advance to bus cycle ``cycle``: fire completions, issue <= 1
        command.

        The dense engine calls this every cycle; the event engine only
        at cycles :meth:`next_event_cycle` reported.  Both produce the
        same command stream because nothing here depends on *how* the
        clock reached ``cycle``: completions pop by timestamp, and
        scheduling reads only current queue/bank state.
        """
        events = self.read_events
        while events and events[0][0] <= cycle:
            _, _, req = heapq.heappop(events)
            self.stats.read_latency_sum += req.done_cycle - req.enqueue_cycle
            self.stats.read_count += 1
            if self.read_done is not None:
                self.read_done(req)

        if cycle < self.refresh.first_due:
            blocked: Optional[Sequence[int]] = ()
        else:
            blocked = self._refresh_step(cycle)
        if blocked is not None:  # None: refresh issued a REF or PRE
            queue = self._served
            if queue is _STALE:
                queue = self._select_queue()
            decision = None if queue is None else self.scheduler.choose(
                queue, self.channel, cycle, blocked)
            if decision is not None:
                self._execute(decision, queue, cycle)
            elif not (self._pending_pre and self._pre_gate <= cycle
                      and self._issue_pending_pre(cycle, blocked)):
                return  # nothing issued this cycle

        # One command issued.
        self._last_issue_cycle = cycle
        self._issue_count += 1

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which this controller can act.

        This is the controller's wake-up bid to the event engine: a
        lower bound (never an overestimate) on the next cycle where
        :meth:`tick` would do anything - fire a read completion, make
        refresh progress, issue a scheduled command or a pending
        precharge.  The bound is valid until the next visited cycle,
        because every state change (enqueue, issue, completion) happens
        at visited cycles and the engine recomputes after each one.
        Each term is computed exactly from the current state, also on a
        cycle that just issued: the scheduler term comes from the
        readiness snapshot, which costs one rebuild per state change
        and which the next :meth:`tick` reuses.

        Multi-rank channels: the refresh loop, the scheduler bound and
        the pending-PRE scan below each iterate every rank, so the bid
        stays exact for ranks_per_channel > 1 (audited; pinned by
        tests/integration/test_scenario_matrix.py::TestMultiRankWakeBid
        and the scenario parity grid).
        """
        events = self.read_events
        nxt = events[0][0] if events else NEVER
        soon = cycle + 1

        # Refresh: ranks whose REF is already due block normal
        # scheduling; wake when their refresh can make progress.
        # Ranks due later wake the controller at the due cycle.
        blocked: Sequence[int] = ()
        due = self.refresh.first_due
        if cycle < due:
            if due < nxt:
                nxt = due
        else:
            due_ranks: List[int] = []
            for rank_idx in range(self._num_ranks):
                due = self.refresh.next_due(rank_idx)
                if due > cycle:
                    if due < nxt:
                        nxt = due
                else:
                    due_ranks.append(rank_idx)
                    t = self.channel.earliest_refresh_action(rank_idx)
                    if t < nxt:
                        nxt = t
            blocked = due_ranks
        if nxt <= soon:
            return soon

        # Scheduled commands.  Only the queue :meth:`_select_queue`
        # picks matters: the selection is a pure function of queue
        # lengths (the drain latch is idempotent in them), and lengths
        # change only at visited cycles - where this bid is recomputed
        # - so the selection provably cannot flip during a skip.
        queue = self._served
        if queue is _STALE:
            queue = self._select_queue()
        if queue is not None:
            t = self.scheduler.next_ready_cycle(queue, self.channel, cycle,
                                                blocked)
            if t < nxt:
                nxt = t
            if nxt <= soon:
                return soon

        if self._pending_pre and self._pre_gate < nxt:
            # A PRE is gated only by its bank's next_pre and the bus.
            gate = low = NEVER
            ranks = self.channel.ranks
            for rank, bank in self._pending_pre:
                bk = ranks[rank].banks[bank]
                t = bk.next_pre
                if t < low:
                    low = t
                if rank in blocked:
                    continue  # refresh handling owns this rank for now
                if bk.open_row is not None and t < gate:
                    gate = t
            self._pre_gate = low
            if gate < nxt:
                t = max(gate, self.channel.next_cmd)
                if t < nxt:
                    nxt = t

        return nxt if nxt > cycle else soon

    # ------------------------------------------------------------------
    # Refresh handling
    # ------------------------------------------------------------------

    def _refresh_step(self, cycle: int) -> Optional[Sequence[int]]:
        """Handle due refreshes (:meth:`tick` calls this only once
        ``cycle`` reaches ``refresh.first_due``).

        Returns the refresh-blocked ranks in ascending order, or None
        when a command was issued (the channel's one-command budget is
        spent).
        """
        blocked = [rank_idx for rank_idx in range(self._num_ranks)
                   if self.refresh.rank_needs_refresh(rank_idx, cycle)]
        for rank_idx in blocked:
            rank = self.channel.ranks[rank_idx]
            if rank.all_banks_closed():
                if self.channel.can_issue(Command.REF, rank_idx, 0, cycle):
                    self.channel.issue_refresh(rank_idx, cycle)
                    self.refresh.on_refresh_issued(rank_idx, cycle)
                    self.stats.refreshes += 1
                    return None
            else:
                for bank_idx, bank in enumerate(rank.banks):
                    if bank.open_row is None:
                        continue
                    if self.channel.can_issue(Command.PRE, rank_idx,
                                              bank_idx, cycle):
                        self._issue_pre(rank_idx, bank_idx, cycle)
                        return None
        return blocked

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------

    def _select_queue(self) -> Optional[RequestQueue]:
        """The queue the scheduler serves this cycle (None when empty),
        also stored as ``_served``.

        Advances the write-drain watermark latch first.  Its
        transitions are idempotent in the queue lengths (re-evaluating
        with unchanged queues never flips the state), a property the
        event engine relies on: queue lengths only change at visited
        cycles, so the latch is provably stable across skipped ones.
        Opportunistic draining when the read queue is empty is
        therefore *not* latched - it is decided afresh here - because
        routing it through the latch would make the state oscillate
        every evaluation at small write occupancies (the drain would
        turn on, immediately drop below the low watermark, turn off,
        and repeat), making command timing depend on how often the
        controller is polled.

        The same idempotence lets ``tick`` and the bid reuse
        ``_served`` until a push or removal marks it ``_STALE``.  The
        re-selection waits for the next tick or bid that needs it: the
        latch must sample lengths only there, as the dense engine does
        (DESIGN.md section 3, "The served queue").
        """
        wq_len = len(self.write_q.items)
        if self._drain_writes:
            if wq_len <= self._wq_low:
                self._drain_writes = False
        elif wq_len >= self._wq_high:
            self._drain_writes = True
        if self._drain_writes:
            queue = self.write_q if wq_len else None
        elif self.read_q.items:
            queue = self.read_q
        else:  # nothing to read: sneak writes out
            queue = self.write_q if wq_len else None
        self._served = queue
        return queue

    def _execute(self, decision: Candidate, queue: RequestQueue,
                 cycle: int) -> None:
        _, _, req, cmd = decision
        if cmd is _RD:   # the most common command: tested first
            done = self.channel.issue_read(req.rank, req.bank, cycle)
            heapq.heappush(self.read_events,
                           (done, next(self._event_seq), req))
            self.stats.reads += 1
            if not req.needed_act:
                self.stats.read_row_hits += 1
        elif cmd is _ACT:
            self._issue_act(req, cycle)
            return
        elif cmd is _PRE:
            self._issue_pre(req.rank, req.bank, cycle)
            return
        elif cmd is _WR:
            done = self.channel.issue_write(req.rank, req.bank, cycle)
            self.stats.writes += 1
            if not req.needed_act:
                self.stats.write_row_hits += 1
        else:  # pragma: no cover - scheduler never returns others
            raise RuntimeError(f"unexpected command {cmd}")
        # A RD or WR: the request leaves its queue.
        req.done_cycle = done
        queue.remove(req)
        self._served = _STALE
        if self.row_policy.closes_rows and \
                self.row_policy.wants_precharge_after(req, self.read_q,
                                                      self.write_q):
            self._pending_pre.add((req.rank, req.bank))
            t = self.channel.ranks[req.rank].banks[req.bank].next_pre
            if t < self._pre_gate:
                self._pre_gate = t

    def _issue_act(self, req: Request, cycle: int) -> None:
        timings = self.mechanism.on_activate(req.rank, req.bank, req.row,
                                             req.core_id, cycle)
        self.channel.issue_activate(req.rank, req.bank, req.row, cycle,
                                    timings)
        req.needed_act = True
        self._act_owner[(req.rank, req.bank)] = req.core_id
        self.stats.activations += 1
        if timings is not None:
            self.stats.act_reduced += 1
        if self.rltl_probe is not None:
            self.rltl_probe.on_activate(self.index, req.rank, req.bank,
                                        req.row, cycle)

    def _issue_pre(self, rank: int, bank: int, cycle: int) -> None:
        row = self.channel.issue_precharge(rank, bank, cycle)
        owner = self._act_owner.get((rank, bank), 0)
        self.mechanism.on_precharge(rank, bank, row, owner, cycle)
        self._pending_pre.discard((rank, bank))
        if self.rltl_probe is not None:
            self.rltl_probe.on_precharge(self.index, rank, bank, row, cycle)

    def _issue_pending_pre(self, cycle: int, blocked: Sequence[int]) -> bool:
        """Issue the set's first legal policy PRE (True if issued), and
        drop the unblocked closed banks met on the way."""
        ranks = self.channel.ranks
        bus_free = self.channel.next_cmd <= cycle
        closed, issue, low = [], None, NEVER
        for key in self._pending_pre:
            rank, bank = key
            bank_state = ranks[rank].banks[bank]
            if rank not in blocked:
                if bank_state.open_row is None:
                    closed.append(key)
                    continue
                # Channel.earliest(PRE): the bank's next_pre and the bus.
                if bus_free and bank_state.next_pre <= cycle:
                    issue = key
                    break
            if bank_state.next_pre < low:
                low = bank_state.next_pre
        for key in closed:
            # One by one: difference_update may resize (reorder) the set.
            self._pending_pre.discard(key)
        if issue is None:
            self._pre_gate = low
            return False
        self._issue_pre(issue[0], issue[1], cycle)
        return True

    # ------------------------------------------------------------------
    # Introspection / statistics
    # ------------------------------------------------------------------

    def active_cycles(self, cycle: int) -> int:
        """Bank-open cycles accumulated since the last stats reset."""
        return self.channel.active_cycles_until(cycle) \
            - self.stats.active_cycle_base

    def rank_active_cycles(self, cycle: int) -> int:
        """Per-rank any-bank-open cycles since the last stats reset."""
        return self.channel.rank_active_cycles_until(cycle) \
            - self.stats.rank_active_base

    def reset_stats(self, cycle: int) -> None:
        self.stats.reset(self.channel.active_cycles_until(cycle),
                         self.channel.rank_active_cycles_until(cycle))
        self.mechanism.reset_stats()
        if self.rltl_probe is not None:
            self.rltl_probe.reset()
