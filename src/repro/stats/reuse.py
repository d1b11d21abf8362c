"""Row-reuse-distance profiling.

The paper explains ChargeCache's weak spots (mcf, omnetpp) via *row
reuse distance* (Kandemir et al. [38]): the number of distinct rows
activated between two activations of the same row.  When the reuse
distance exceeds the HCRAC capacity, the entry is evicted before it can
produce a hit, and only LL-DRAM's unconditional reductions help.

:class:`RowReuseProfiler` measures the exact stack-distance
distribution of the activation stream (LRU stack over row ids) and
predicts the hit rate of an LRU table of a given capacity - a useful
model to size the HCRAC without running full simulations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple


class RowReuseProfiler:
    """Exact LRU stack-distance histogram over activated rows.

    Hook :meth:`on_activate` to the controller (it has the same
    signature as the RLTL probe's hook, so both can be chained) or feed
    it an activation stream directly.
    """

    def __init__(self):
        self._stack: "OrderedDict[Tuple[int, int, int, int], None]" = \
            OrderedDict()
        self.histogram: Dict[int, int] = {}
        self.cold = 0
        self.activations = 0

    # ------------------------------------------------------------------

    def on_activate(self, channel: int, rank: int, bank: int, row: int,
                    cycle: int = 0) -> Optional[int]:
        """Record an activation; returns its reuse distance (None=cold).

        Distance 0 means the row was the most recently activated
        distinct row.
        """
        del cycle
        key = (channel, rank, bank, row)
        self.activations += 1
        if key in self._stack:
            # Stack distance: how many distinct rows were touched since.
            distance = 0
            for other in reversed(self._stack):
                if other == key:
                    break
                distance += 1
            self._stack.move_to_end(key)
            self.histogram[distance] = self.histogram.get(distance, 0) + 1
            return distance
        self._stack[key] = None
        self.cold += 1
        return None

    def on_precharge(self, channel: int, rank: int, bank: int, row: int,
                     cycle: int = 0) -> None:
        """No-op; present so the profiler can replace an RLTL probe."""

    # ------------------------------------------------------------------

    def predicted_hit_rate(self, capacity: int) -> float:
        """Hit rate of a fully-associative LRU table of ``capacity``.

        By the inclusion property of LRU, an activation hits iff its
        stack distance is below the capacity.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not self.activations:
            return 0.0
        hits = sum(count for distance, count in self.histogram.items()
                   if distance < capacity)
        return hits / self.activations

    def median_reuse_distance(self) -> Optional[int]:
        """Median over non-cold activations (None if no reuse seen)."""
        total = sum(self.histogram.values())
        if not total:
            return None
        seen = 0
        for distance in sorted(self.histogram):
            seen += self.histogram[distance]
            if seen * 2 >= total:
                return distance
        return None  # pragma: no cover

    def reset(self) -> None:
        self._stack.clear()
        self.histogram.clear()
        self.cold = 0
        self.activations = 0
