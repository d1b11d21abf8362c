"""Trace records: the stream each simulated core consumes.

A trace is an iterable of :class:`TraceRecord`.  Each record encodes:

* ``bubbles`` - how many non-memory instructions precede the access,
* ``line_address`` - the 64 B cache-line address touched,
* ``is_write`` - store (True) or load (False),
* ``dependent`` - the access must wait for all earlier loads
  (models pointer-chasing, which bounds memory-level parallelism).

External trace files enter through :mod:`repro.workloads.ingest`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, NamedTuple, Sequence, Tuple


class TraceRecord(NamedTuple):
    bubbles: int
    line_address: int
    is_write: bool
    dependent: bool = False


def trace_from_tuples(tuples: Sequence[Tuple]) -> List[TraceRecord]:
    """Build records from (bubbles, line, is_write[, dependent]) tuples."""
    records = []
    for item in tuples:
        if len(item) == 3:
            bubbles, line, is_write = item
            records.append(TraceRecord(bubbles, line, bool(is_write)))
        elif len(item) == 4:
            bubbles, line, is_write, dep = item
            records.append(TraceRecord(bubbles, line, bool(is_write),
                                       bool(dep)))
        else:
            raise ValueError(f"bad trace tuple {item!r}")
    return records


def looped(trace: Sequence[TraceRecord]) -> Iterator[TraceRecord]:
    """Endlessly repeat a finite trace (cores never starve)."""
    if not trace:
        raise ValueError("cannot loop an empty trace")
    return itertools.cycle(trace)


class TraceTape:
    """Record-once, replay-many view over per-core trace iterators.

    The batch evaluator replays one workload under N mechanism
    variants; generating the synthetic traces N times would repeat the
    RNG work and, worse, require keeping N generator states in sync.
    A tape draws each record from the underlying source exactly once,
    memoizes it, and hands out any number of independent readers.  The
    tape extends lazily, so variants that consume different record
    counts (a faster variant finishes the instruction budget with
    fewer trace records in flight) each see exactly the records they
    ask for, in the source's order.
    """

    def __init__(self, sources: Sequence[Iterator[TraceRecord]]):
        self._sources = [iter(source) for source in sources]
        self._records: List[List[TraceRecord]] = [[] for _ in sources]

    def __len__(self) -> int:
        return len(self._sources)

    def reader(self, core_id: int) -> Iterator[TraceRecord]:
        """A fresh iterator over core ``core_id``'s trace from the top."""
        records = self._records[core_id]
        source = self._sources[core_id]
        i = 0
        while True:
            if i >= len(records):
                try:
                    records.append(next(source))
                except StopIteration:
                    return
            yield records[i]
            i += 1

    def readers(self) -> List[Iterator[TraceRecord]]:
        """One fresh reader per core, for a System's ``traces``."""
        return [self.reader(core_id) for core_id in range(len(self))]
