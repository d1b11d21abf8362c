"""Bounded request queues with arrival-order iteration.

The controller keeps one read queue and one write queue per channel
(64 entries each in the paper's configuration).  Writes coalesce by
line address; reads may be served by forwarding from a queued write
(the data is newer than DRAM's copy).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.controller.request import Request


class RequestQueue:
    """FIFO-ordered bounded queue indexed by line address.

    Besides the arrival-order list, the queue maintains incrementally

    * per-(rank, bank) lists of ``(seq, request)`` in arrival order,
      where ``seq`` is a queue-local arrival counter (``Request.id`` is
      not usable: a retried request arrives out of id order), and
    * per-(rank, bank, row) request counts,

    so the FR-FCFS scan and row-policy checks run in O(distinct banks)
    instead of rescanning every entry.  Merging the per-bank lists by
    ``seq`` gives back exactly the arrival-order list.

    The arrival-order list itself is the public :attr:`items`, so the
    controller's per-visit reads (queue length, occupancy samples) are
    plain ``len(queue.items)`` instead of a Python-level ``__len__``
    call.  It is read-only to everyone but the queue: only
    :meth:`push` and :meth:`remove` may change it, because they also
    keep the indexes and :attr:`version` in step.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Queued requests in arrival order (read-only, see above).
        self.items: List[Request] = []
        self._by_line: Dict[int, Request] = {}
        self._by_bank: Dict[Tuple[int, int], List[Tuple[int, Request]]] = {}
        self._row_count: Dict[Tuple[int, int, int], int] = {}
        self._seq = 0
        #: Bumped on every push/remove; lets the event engine cache
        #: earliest-ready computations between content changes.
        self.version = 0
        # Statistics.
        self.enqueued = 0
        self.coalesced = 0
        self.occupancy_accum = 0
        self.occupancy_samples = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def occupancy_fraction(self) -> float:
        return len(self.items) / self.capacity

    # ------------------------------------------------------------------

    def push(self, request: Request, cycle: int) -> bool:
        """Append ``request``; returns False when the queue is full."""
        if len(self.items) >= self.capacity:
            return False
        request.enqueue_cycle = cycle
        self.items.append(request)
        self._by_line[request.line_address] = request
        bank_key = (request.rank, request.bank)
        entries = self._by_bank.get(bank_key)
        if entries is None:
            self._by_bank[bank_key] = [(self._seq, request)]
        else:
            entries.append((self._seq, request))
        self._seq += 1
        row_key = (request.rank, request.bank, request.row)
        self._row_count[row_key] = self._row_count.get(row_key, 0) + 1
        self.version += 1
        self.enqueued += 1
        return True

    def coalesce_write(self, line_address: int) -> bool:
        """True if a queued write to ``line_address`` absorbed this one."""
        existing = self._by_line.get(line_address)
        if existing is not None and existing.is_write:
            self.coalesced += 1
            return True
        return False

    def find_line(self, line_address: int) -> Optional[Request]:
        return self._by_line.get(line_address)

    def remove(self, request: Request) -> None:
        self.items.remove(request)
        if self._by_line.get(request.line_address) is request:
            del self._by_line[request.line_address]
        bank_key = (request.rank, request.bank)
        entries = self._by_bank[bank_key]
        if len(entries) == 1:
            del self._by_bank[bank_key]
        else:
            for i, (_, queued) in enumerate(entries):
                if queued is request:
                    del entries[i]
                    break
        row_key = (request.rank, request.bank, request.row)
        left = self._row_count[row_key] - 1
        if left:
            self._row_count[row_key] = left
        else:
            del self._row_count[row_key]
        self.version += 1

    def requests_for_bank(self, rank: int, bank: int) -> int:
        """Count queued requests to a specific (rank, bank)."""
        return len(self._by_bank.get((rank, bank), ()))

    def requests_for_row(self, rank: int, bank: int, row: int) -> int:
        """Count queued requests to a specific (rank, bank, row)."""
        return self._row_count.get((rank, bank, row), 0)

    def banks(self) -> Iterator[Tuple[int, int]]:
        """The distinct (rank, bank) pairs with queued requests."""
        return iter(self._by_bank)

    def by_bank(self):
        """``((rank, bank), [(seq, request), ...])`` per queued bank.

        Each list is in arrival order (ascending ``seq``).  Callers must
        not mutate the lists.
        """
        return self._by_bank.items()

    def sample_occupancy(self) -> None:
        self.occupancy_accum += len(self.items)
        self.occupancy_samples += 1

    def reset_stats(self) -> None:
        """Zero the enqueue/coalesce counters and occupancy samples."""
        self.enqueued = 0
        self.coalesced = 0
        self.occupancy_accum = 0
        self.occupancy_samples = 0

    @property
    def average_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_accum / self.occupancy_samples
