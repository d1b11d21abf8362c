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
from array import array
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


#: A tape flag byte's ``is_write`` and ``dependent``.
_IS_WRITE = (False, True, False, True)
_DEPENDENT = (False, False, True, True)


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

    Each core's records are kept as columns: ``bubbles`` and
    ``line_address`` in two ``array('q')``, the flags in a
    ``bytearray`` (bit 0 ``is_write``, bit 1 ``dependent``).  The
    reader that extends the tape yields the source's record; a
    reader replaying it rebuilds an equal record from the columns.
    """

    def __init__(self, sources: Sequence[Iterator[TraceRecord]]):
        self._sources = [iter(source) for source in sources]
        #: Per core: the (bubbles, line addresses, flags) columns.
        self._columns: List[Tuple[array, array, bytearray]] = [
            (array("q"), array("q"), bytearray()) for _ in sources]

    def __len__(self) -> int:
        return len(self._sources)

    def reader(self, core_id: int) -> Iterator[TraceRecord]:
        """A fresh iterator over core ``core_id``'s trace from the top."""
        bubbles, lines, flags = self._columns[core_id]
        source = self._sources[core_id]
        new = tuple.__new__  # skips TraceRecord's Python-level __new__
        i = 0
        while True:
            if i < len(flags):
                flag = flags[i]
                yield new(TraceRecord, (bubbles[i], lines[i], _IS_WRITE[flag],
                                        _DEPENDENT[flag]))
            else:
                try:
                    record = next(source)
                except StopIteration:
                    return
                bubbles.append(record[0])
                lines.append(record[1])
                flags.append((1 if record[2] else 0)
                             | (2 if record[3] else 0))
                yield record
            i += 1

    def readers(self) -> List[Iterator[TraceRecord]]:
        """One fresh reader per core, for a System's ``traces``."""
        return [self.reader(core_id) for core_id in range(len(self))]
