"""Shared last-level cache (paper Table 1: 4 MB, 16-way, 64 B lines).

Design notes:

* Physically-indexed, set-associative, LRU, write-back for lines that
  are dirtied by store hits; dirty evictions produce DRAM writes.
* Store misses are write-no-allocate: the store is forwarded to the
  memory controller's write queue (which coalesces).  This keeps the
  posted-store semantics of the core model simple while still
  generating the DRAM write traffic the paper's energy model sees.
* Load misses allocate an MSHR keyed by line address; concurrent
  misses to the same line merge.  When the controller cannot accept a
  request (full read queue), the miss parks in a retry list that is
  drained every memory cycle.

LRU is implemented with per-set ``OrderedDict`` (move-to-end on access,
pop-first on eviction), which is both exact and fast.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Tuple

from repro.controller.request import Request, RequestType


class MSHREntry:
    """Outstanding fill for one line, with merged waiters."""

    __slots__ = ("line_address", "waiters", "sent")

    def __init__(self, line_address: int):
        self.line_address = line_address
        #: (core_id, token, notify) triples waiting for the fill.
        self.waiters: List[Tuple[int, int, Callable[[int, int], None]]] = []
        self.sent = False


class SharedCache:
    """Shared LLC in front of the memory controllers."""

    def __init__(self, cache_config, mapper, controllers,
                 hit_notify: Callable[[int, int, int], None],
                 current_mem_cycle: Callable[[], int]):
        """
        Args:
            cache_config: a :class:`repro.config.CacheConfig`.
            mapper: the system's :class:`AddressMapper`.
            controllers: list of per-channel memory controllers.
            hit_notify: ``hit_notify(core_id, token, cpu_delay)``
                schedules a load-completion callback after the hit
                latency (the system wires this to its event queue).
            current_mem_cycle: callable returning the present DRAM bus
                cycle, used to timestamp controller requests.
        """
        cache_config.validate()
        self.config = cache_config
        self.mapper = mapper
        self.controllers = controllers
        self.hit_notify = hit_notify
        self.mem_cycle = current_mem_cycle

        self.num_sets = cache_config.num_sets
        self.assoc = cache_config.associativity
        # _sets[i]: OrderedDict mapping tag -> dirty flag (LRU order).
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.num_sets)]
        self._mshrs: Dict[int, MSHREntry] = {}
        self._retry_reads: List[Request] = []
        self._retry_writes: List[Request] = []
        # Statistics.
        self.load_hits = 0
        self.load_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.writebacks = 0
        self.mshr_merges = 0

    # ------------------------------------------------------------------

    def _locate(self, line_address: int) -> Tuple[OrderedDict, int]:
        set_idx = line_address % self.num_sets
        tag = line_address // self.num_sets
        return self._sets[set_idx], tag

    # ------------------------------------------------------------------
    # Core-facing accesses
    # ------------------------------------------------------------------

    def access_load(self, core_id: int, line_address: int,
                    token: int,
                    notify: Callable[[int, int], None]) -> bool:
        """Handle a load; always accepted (MSHR/retry absorb pressure).

        ``notify(core_id, token)`` fires when data is available.
        """
        lru, tag = self._locate(line_address)
        if tag in lru:
            lru.move_to_end(tag)
            self.load_hits += 1
            self.hit_notify(core_id, token, self.config.hit_latency_cycles)
            return True
        self.load_misses += 1
        mshr = self._mshrs.get(line_address)
        if mshr is not None:
            mshr.waiters.append((core_id, token, notify))
            self.mshr_merges += 1
            return True
        mshr = MSHREntry(line_address)
        mshr.waiters.append((core_id, token, notify))
        self._mshrs[line_address] = mshr
        request = Request(line_address, RequestType.READ, core_id,
                          callback=self._fill)
        self.mapper.decode_into(request)
        self._send_read(request, mshr)
        return True

    def access_store(self, core_id: int, line_address: int) -> bool:
        """Handle a store; returns False if the write must be retried."""
        lru, tag = self._locate(line_address)
        if tag in lru:
            lru.move_to_end(tag)
            lru[tag] = True  # dirty
            self.store_hits += 1
            return True
        self.store_misses += 1
        request = Request(line_address, RequestType.WRITE, core_id)
        self.mapper.decode_into(request)
        return self._send_write(request)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------

    def _fill(self, request: Request) -> None:
        """Controller read completion: install line, wake waiters."""
        mshr = self._mshrs.pop(request.line_address, None)
        if mshr is None:
            return  # e.g. a probe request not tracked by an MSHR
        lru, tag = self._locate(request.line_address)
        if tag not in lru:
            self._install(request.line_address, lru, tag,
                          request.core_id)
        for core_id, token, notify in mshr.waiters:
            notify(core_id, token)

    def _install(self, line_address: int, lru: OrderedDict,
                 tag: int, core_id: int) -> None:
        if len(lru) >= self.assoc:
            victim_tag, dirty = lru.popitem(last=False)
            if dirty:
                self._writeback(line_address, victim_tag, core_id)
        lru[tag] = False

    def _writeback(self, incoming_line: int, victim_tag: int,
                   core_id: int) -> None:
        """Write a dirty victim back to DRAM.

        The writeback is attributed to the core whose fill evicted the
        victim; the true dirtying core is not tracked per line, and
        this keeps per-core ChargeCache tables seeing their own
        channel's writeback activations instead of funnelling them all
        into core 0's table.
        """
        set_idx = incoming_line % self.num_sets
        victim_line = victim_tag * self.num_sets + set_idx
        request = Request(victim_line, RequestType.WRITE, core_id)
        self.mapper.decode_into(request)
        self.writebacks += 1
        self._send_write(request, must_park=True)

    # ------------------------------------------------------------------
    # Controller interfacing with retry
    # ------------------------------------------------------------------

    def _send_read(self, request: Request, mshr: MSHREntry) -> None:
        controller = self.controllers[request.channel]
        if controller.enqueue_read(request, self.mem_cycle()):
            mshr.sent = True
        else:
            self._retry_reads.append(request)

    #: Back-pressure bound on parked (retry) writes from store misses.
    MAX_PARKED_WRITES = 32

    def _send_write(self, request: Request,
                    must_park: bool = False) -> bool:
        """Send a write to its controller.

        Dirty writebacks (``must_park``) are never dropped; store
        misses are refused (returning False, stalling the core) once
        the retry list reaches :data:`MAX_PARKED_WRITES`, providing
        back-pressure when a channel's write queue saturates.
        """
        controller = self.controllers[request.channel]
        if controller.enqueue_write(request, self.mem_cycle()):
            return True
        if must_park or len(self._retry_writes) < self.MAX_PARKED_WRITES:
            self._retry_writes.append(request)
            return True
        return False

    def tick(self) -> None:
        """Retry parked requests (called once per memory cycle)."""
        if self._retry_reads:
            still_waiting = []
            for request in self._retry_reads:
                controller = self.controllers[request.channel]
                if controller.enqueue_read(request, self.mem_cycle()):
                    mshr = self._mshrs.get(request.line_address)
                    if mshr is not None:
                        mshr.sent = True
                else:
                    still_waiting.append(request)
            self._retry_reads = still_waiting
        if self._retry_writes:
            still_waiting = []
            for request in self._retry_writes:
                controller = self.controllers[request.channel]
                if not controller.enqueue_write(request, self.mem_cycle()):
                    still_waiting.append(request)
            self._retry_writes = still_waiting

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def outstanding_misses(self) -> int:
        return len(self._mshrs)

    @property
    def has_parked_requests(self) -> bool:
        """Any requests waiting in the retry lists?

        While parked requests exist the event engine must visit every
        cycle, mirroring the dense engine's per-cycle :meth:`tick`
        retry: a parked read can newly succeed not only when queue room
        frees (a visited issue cycle) but also by write-queue
        forwarding the cycle after a matching store enqueues.
        """
        return bool(self._retry_reads or self._retry_writes)

    def contains(self, line_address: int) -> bool:
        lru, tag = self._locate(line_address)
        return tag in lru

    def hit_rate(self) -> float:
        accesses = (self.load_hits + self.load_misses
                    + self.store_hits + self.store_misses)
        hits = self.load_hits + self.store_hits
        return hits / accesses if accesses else 0.0

    def reset_stats(self) -> None:
        self.load_hits = 0
        self.load_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.writebacks = 0
        self.mshr_merges = 0
