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

LRU is implemented with a plain ``list`` of tags per set, oldest
first: a hit moves its tag to the end (unless it is already last) and
a fill evicts the first tag (``lru.pop(0)``).  Dirty lines are one
cache-wide ``set`` of line addresses: a store hit adds its line and
an eviction writes its victim back if it takes it out of the set.  A
lookup scans at most ``associativity`` ints in C.  The sets are one
preallocated table whose slot stays ``None`` until a fill installs a
line there, so building a cache costs one list and a run holds a tag
list only for the sets it filled: a miss to an empty set creates
nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.config import LLC_HIT_LATENCY_CYCLES
from repro.controller.request import Request, RequestType


class SharedCache:
    """Shared LLC in front of the memory controllers."""

    def __init__(self, cache_config, mapper, controllers,
                 hit_notify: Callable[[int, int, int], None],
                 load_notify: Callable[[int, int], None],
                 current_mem_cycle: Callable[[], int]):
        """
        Args:
            cache_config: a :class:`repro.config.CacheConfig`.
            mapper: the system's
                :class:`~repro.dram.organization.Organization`, whose
                ``decode_into`` gives each request its DRAM coordinates.
            controllers: list of per-channel memory controllers; each
                reports read completions to this cache's fill
                (their ``read_done`` hook).
            hit_notify: ``hit_notify(core_id, token, cpu_delay)``
                schedules a load-completion callback after the hit
                latency (the system wires this to its event queue).
            load_notify: ``load_notify(core_id, token)`` fires when a
                missed load's data is filled.
            current_mem_cycle: callable returning the present DRAM bus
                cycle, used to timestamp controller requests.
        """
        cache_config.validate()
        self.mapper = mapper
        self.controllers = controllers
        for controller in controllers:
            controller.read_done = self._fill
        self.hit_notify = hit_notify
        self.load_notify = load_notify
        self.mem_cycle = current_mem_cycle

        self.num_sets = cache_config.num_sets
        self.assoc = cache_config.associativity
        #: ``sets[index]``: the set's tags in LRU order (oldest first),
        #: or None until a fill installs its first line; read-only
        #: outside the cache.
        self.sets: List[Optional[List[int]]] = [None] * self.num_sets
        #: Line addresses of the resident lines store hits dirtied.
        self.dirty: Set[int] = set()
        #: MSHRs: line -> the (core_id, token) loads awaiting it.
        self._mshrs: Dict[int, List[Tuple[int, int]]] = {}
        #: Parked requests the controllers refused, retried every
        #: memory cycle by :meth:`tick`.  Read-only outside the cache.
        #: While either list is non-empty the event engine must visit
        #: every cycle, mirroring the dense engine's per-cycle retry: a
        #: parked read can newly succeed not only when queue room frees
        #: (a visited issue cycle) but also by write-queue forwarding
        #: the cycle after a matching store enqueues.
        self.retry_reads: List[Request] = []
        self.retry_writes: List[Request] = []
        # Statistics.
        self.load_hits = 0
        self.load_misses = 0
        self.store_hits = 0
        self.store_misses = 0

    # ------------------------------------------------------------------
    # Core-facing accesses (each computes its line's set and tag:
    # ``line % num_sets`` and ``line // num_sets``)
    # ------------------------------------------------------------------

    def access_load(self, core_id: int, line_address: int,
                    token: int) -> bool:
        """Handle a load; always accepted (MSHR/retry absorb pressure).

        ``hit_notify`` or, after a miss, ``load_notify`` reports the
        data's arrival.
        """
        lru = self.sets[line_address % self.num_sets]
        tag = line_address // self.num_sets
        if lru is not None and tag in lru:
            if lru[-1] != tag:
                lru.remove(tag)
                lru.append(tag)
            self.load_hits += 1
            self.hit_notify(core_id, token, LLC_HIT_LATENCY_CYCLES)
            return True
        self.load_misses += 1
        waiters = self._mshrs.get(line_address)
        if waiters is not None:
            waiters.append((core_id, token))
            return True
        self._mshrs[line_address] = [(core_id, token)]
        request = Request(line_address, RequestType.READ, core_id)
        self.mapper.decode_into(request)
        if not self.controllers[request.channel].enqueue_read(
                request, self.mem_cycle()):
            self.retry_reads.append(request)
        return True

    def access_store(self, core_id: int, line_address: int) -> bool:
        """Handle a store; returns False if the write must be retried."""
        lru = self.sets[line_address % self.num_sets]
        tag = line_address // self.num_sets
        if lru is not None and tag in lru:
            if lru[-1] != tag:
                lru.remove(tag)
                lru.append(tag)
            self.dirty.add(line_address)
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
        line_address = request.line_address
        waiters = self._mshrs.pop(line_address, None)
        if waiters is None:
            return  # e.g. a probe request not tracked by an MSHR
        set_idx = line_address % self.num_sets
        lru = self.sets[set_idx]
        tag = line_address // self.num_sets
        if lru is None:
            self.sets[set_idx] = [tag]
        elif tag not in lru:
            if len(lru) >= self.assoc:
                victim_line = lru.pop(0) * self.num_sets + set_idx
                if victim_line in self.dirty:
                    self.dirty.discard(victim_line)
                    self._writeback(victim_line, request.core_id)
            lru.append(tag)
        notify = self.load_notify
        for core_id, token in waiters:
            notify(core_id, token)

    def _writeback(self, victim_line: int, core_id: int) -> None:
        """Write a dirty victim back to DRAM.

        The writeback is attributed to the core whose fill evicted the
        victim; the true dirtying core is not tracked per line, and
        this keeps per-core ChargeCache tables seeing their own
        channel's writeback activations instead of funnelling them all
        into core 0's table.
        """
        request = Request(victim_line, RequestType.WRITE, core_id)
        self.mapper.decode_into(request)
        self._send_write(request, must_park=True)

    # ------------------------------------------------------------------
    # Controller interfacing with retry
    # ------------------------------------------------------------------

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
        if must_park or len(self.retry_writes) < self.MAX_PARKED_WRITES:
            self.retry_writes.append(request)
            return True
        return False

    def tick(self) -> None:
        """Retry parked requests (called on each visited cycle that
        finds some)."""
        if self.retry_reads:
            still_waiting = []
            for request in self.retry_reads:
                controller = self.controllers[request.channel]
                if not controller.enqueue_read(request, self.mem_cycle()):
                    still_waiting.append(request)
            self.retry_reads = still_waiting
        if self.retry_writes:
            still_waiting = []
            for request in self.retry_writes:
                controller = self.controllers[request.channel]
                if not controller.enqueue_write(request, self.mem_cycle()):
                    still_waiting.append(request)
            self.retry_writes = still_waiting

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

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
