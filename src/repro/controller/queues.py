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
    per-(rank, bank) lists of ``(seq, request)`` in arrival order, where
    ``seq`` is a queue-local arrival counter (``Request.id`` is not
    usable: a retried request arrives out of id order), so the FR-FCFS
    scan runs in O(distinct banks) instead of rescanning every entry.
    Merging the per-bank lists by ``seq`` gives back exactly the
    arrival-order list.  Row counts for the closed-row policy scan one
    bank's list (no per-row index to keep on every push and removal).

    The arrival-order list itself is the public :attr:`items`, so the
    controller's per-visit queue-length reads are plain
    ``len(queue.items)`` instead of a Python-level ``__len__`` call;
    the per-bank index is the public :attr:`by_bank`, which the FR-FCFS
    snapshot walks directly.  Both are read-only to everyone but the
    queue: only :meth:`push` and :meth:`remove` may change them,
    because they also keep the line index and :attr:`version` in step.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Queued requests in arrival order (read-only, see above).
        self.items: List[Request] = []
        self._by_line: Dict[int, Request] = {}
        #: ``(rank, bank) -> [(seq, request), ...]`` per queued bank,
        #: each list in arrival order (ascending ``seq``); read-only.
        self.by_bank: Dict[Tuple[int, int], List[Tuple[int, Request]]] = {}
        self._seq = 0
        #: Bumped on every push/remove; lets the event engine cache
        #: earliest-ready computations between content changes.
        self.version = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.items)

    # ------------------------------------------------------------------

    def push(self, request: Request, cycle: int) -> bool:
        """Append ``request``; returns False when the queue is full."""
        if len(self.items) >= self.capacity:
            return False
        request.enqueue_cycle = cycle
        self.items.append(request)
        self._by_line[request.line_address] = request
        bank_key = (request.rank, request.bank)
        entries = self.by_bank.get(bank_key)
        if entries is None:
            self.by_bank[bank_key] = [(self._seq, request)]
        else:
            entries.append((self._seq, request))
        self._seq += 1
        self.version += 1
        return True

    def coalesce_write(self, line_address: int) -> bool:
        """True if a queued write to ``line_address`` absorbed this one."""
        existing = self._by_line.get(line_address)
        return existing is not None and existing.is_write

    def find_line(self, line_address: int) -> Optional[Request]:
        return self._by_line.get(line_address)

    def remove(self, request: Request) -> None:
        self.items.remove(request)
        if self._by_line.get(request.line_address) is request:
            del self._by_line[request.line_address]
        bank_key = (request.rank, request.bank)
        entries = self.by_bank[bank_key]
        if len(entries) == 1:
            del self.by_bank[bank_key]
        else:
            for i, (_, queued) in enumerate(entries):
                if queued is request:
                    del entries[i]
                    break
        self.version += 1
