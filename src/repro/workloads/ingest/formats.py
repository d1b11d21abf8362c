"""Parsers for external memory-trace formats.

Two on-disk formats are understood:

* **Memory trace** - the gem5/Ramulator-style line format::

      <cycle> <address> <R|W>

  one access per line: the CPU cycle the access issued at
  (non-decreasing), the physical *byte* address (decimal or
  ``0x``-prefixed hex) and the operation.  Blank lines and ``#``
  comments are ignored.  This is the interchange format of the
  ingestion pipeline; :mod:`repro.workloads.ingest.normalize` maps it
  into the repro's internal request stream.

* **gem5 ``stats.txt``** - the flat ``<name> <value> [# comment]``
  statistics dump, including its ``Begin/End Simulation Statistics``
  snapshot markers.  :func:`read_gem5_stats` returns one snapshot as a
  name -> float dict, which is enough to cross-check a fingerprint
  (row hits, activations, cycle counts) against the simulator that
  produced the trace.

All parse failures raise :class:`TraceFormatError` with a precise
``path:line: reason`` message, so a malformed external trace fails
loudly at ingestion time rather than as a silent workload mutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional


class TraceFormatError(ValueError):
    """A trace or stats file violates its format contract.

    ``str(exc)`` is always ``<path>:<line>: <reason>`` (or
    ``<path>: <reason>`` for whole-file problems such as an empty
    trace), so messages are grep-able and point at the offending line.
    """

    def __init__(self, path: str, line_no: Optional[int], reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {reason}")


class MemTraceRecord(NamedTuple):
    """One line of the external memory-trace format."""

    cycle: int
    address: int        # physical byte address
    is_write: bool


def _parse_int(text: str, what: str, base: int = 10) -> int:
    try:
        # base 0 accepts decimal and 0x-prefixed hex.
        value = int(text, 0 if base == 0 else base)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None
    if value < 0:
        raise ValueError(f"bad {what} {text!r} (must be non-negative)")
    return value


def iter_mem_trace(path: str) -> Iterable[MemTraceRecord]:
    """Stream records from a ``<cycle> <address> <R|W>`` trace file.

    Validates as it goes: field count, cycle and address syntax, the
    operation letter, and cycle monotonicity (cycles must never
    decrease; equal cycles are legal - two accesses can issue in the
    same cycle).  Raises :class:`TraceFormatError` on the first
    violation.
    """
    last_cycle = None
    with open(path, encoding="ascii", errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise TraceFormatError(
                    path, line_no,
                    f"expected '<cycle> <address> <R|W>', "
                    f"got {len(parts)} field(s): {line!r}")
            try:
                cycle = _parse_int(parts[0], "cycle")
                address = _parse_int(parts[1], "address", base=0)
            except ValueError as exc:
                raise TraceFormatError(path, line_no, str(exc)) from None
            if parts[2] not in ("R", "W"):
                raise TraceFormatError(
                    path, line_no,
                    f"bad op {parts[2]!r} (expected R or W)")
            if last_cycle is not None and cycle < last_cycle:
                raise TraceFormatError(
                    path, line_no,
                    f"non-monotonic cycle {cycle} after {last_cycle}")
            last_cycle = cycle
            yield MemTraceRecord(cycle, address, parts[2] == "W")


def read_mem_trace(path: str) -> List[MemTraceRecord]:
    """Read a whole memory-trace file; empty traces are an error."""
    records = list(iter_mem_trace(path))
    if not records:
        raise TraceFormatError(path, None, "no records")
    return records


def write_mem_trace(path: str, records: Iterable[MemTraceRecord]) -> int:
    """Write records in the ``<cycle> <address> <R|W>`` format."""
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            op = "W" if rec.is_write else "R"
            fh.write(f"{rec.cycle} {rec.address:#x} {op}\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# gem5 stats.txt
# ----------------------------------------------------------------------

_SNAPSHOT_BEGIN = "Begin Simulation Statistics"
_SNAPSHOT_END = "End Simulation Statistics"


def _parse_stat_value(text: str) -> float:
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    if text in ("nan", "-nan", "inf", "-inf"):
        return float(text.replace("-nan", "nan"))
    return float(text)


def read_gem5_stats(path: str, snapshot: int = 0) -> Dict[str, float]:
    """Parse one snapshot of a gem5 ``stats.txt`` dump.

    gem5 appends a ``Begin/End Simulation Statistics`` block per stats
    dump; ``snapshot`` selects which one (0 = first, -1 = last).  Each
    stat line is ``<name> <value> [# comment]``; percent values are
    returned as fractions, ``nan`` stays NaN.  A value that does not
    parse as a number raises :class:`TraceFormatError`; a snapshot
    index past the end of the file raises it with the snapshot count.
    """
    snapshots: List[Dict[str, float]] = []
    current: Optional[Dict[str, float]] = None
    with open(path, encoding="ascii", errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if _SNAPSHOT_BEGIN in line:
                current = {}
                snapshots.append(current)
                continue
            if _SNAPSHOT_END in line:
                current = None
                continue
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise TraceFormatError(
                    path, line_no,
                    f"expected '<name> <value>', got {line!r}")
            try:
                value = _parse_stat_value(parts[1])
            except ValueError:
                raise TraceFormatError(
                    path, line_no,
                    f"bad stat value {parts[1]!r} for {parts[0]!r}"
                ) from None
            if current is None:
                # Stats before any Begin marker form an implicit
                # snapshot (plain dumps have no markers at all).
                current = {}
                snapshots.append(current)
            current[parts[0]] = value
    if not snapshots:
        raise TraceFormatError(path, None, "no statistics")
    try:
        chosen = snapshots[snapshot]
    except IndexError:
        raise TraceFormatError(
            path, None,
            f"snapshot {snapshot} out of range "
            f"({len(snapshots)} snapshot(s) in file)") from None
    if not chosen:
        raise TraceFormatError(path, None, "empty statistics snapshot")
    return chosen
