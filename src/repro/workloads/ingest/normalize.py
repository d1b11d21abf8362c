"""Normalization: external memory traces -> internal request streams.

The repro's simulators consume :class:`repro.cpu.trace.TraceRecord`
streams - (bubbles, cache-line address, is_write) - while external
traces speak (cycle, byte address, op).  This layer converts between
the two against a concrete DRAM :class:`~repro.dram.organization.
Organization`:

* **Addresses**: byte address -> cache-line address (``>> log2(line)``),
  wrapped to the organization's capacity, so an ingested request lands
  on exactly the channel/rank/bank/row the simulated platform decodes
  it to.  Addresses beyond the modelled capacity wrap, like every other
  workload source.
* **Time**: the cycle gap between consecutive accesses becomes the
  record's ``bubbles`` (non-memory instructions before the access)
  under an IPC=1 idealization: a gap of ``g`` CPU cycles is
  ``g/cycles_per_instruction - 1`` bubbles (floored at 0).  The
  inverse, :func:`denormalize_records`, regenerates cycles by the same
  rule, so normalize(denormalize(t)) round-trips bit-identically for
  in-range addresses.

The external format has no dependence channel, so ingested records
are never ``dependent`` (synthetic pointer-chase workloads remain the
way to model that).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional

from repro.config import LINE_BYTES
from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
from repro.workloads.ingest.formats import (
    MemTraceRecord,
    TraceFormatError,
    read_mem_trace,
)


def trace_file_sha256(path: str) -> str:
    """Streaming SHA-256 of a trace file's bytes (the content hash
    folded into trace-run cache keys)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


#: Byte address -> cache-line address shift.
_LINE_SHIFT = LINE_BYTES.bit_length() - 1


def normalize_records(records: Iterable[MemTraceRecord],
                      org: Organization, *,
                      cycles_per_instruction: float = 1.0
                      ) -> List[TraceRecord]:
    """Map external (cycle, byte address, op) records into the internal
    request stream for one DRAM organization."""
    if cycles_per_instruction <= 0:
        raise ValueError("cycles_per_instruction must be positive")
    mask = org.total_lines - 1
    out: List[TraceRecord] = []
    prev_cycle = 0
    for rec in records:
        gap = rec.cycle - prev_cycle
        bubbles = max(0, round(gap / cycles_per_instruction) - 1)
        prev_cycle = rec.cycle
        out.append(TraceRecord(bubbles, (rec.address >> _LINE_SHIFT) & mask,
                               rec.is_write))
    return out


def denormalize_records(records: Iterable[TraceRecord],
                        org: Organization, *,
                        cycles_per_instruction: float = 1.0
                        ) -> List[MemTraceRecord]:
    """Inverse of :func:`normalize_records`: regenerate external
    records from an internal stream (fixture generation, round-trip
    tests).  Dependence flags do not survive - the external format
    cannot express them."""
    if cycles_per_instruction <= 0:
        raise ValueError("cycles_per_instruction must be positive")
    mask = org.total_lines - 1
    out: List[MemTraceRecord] = []
    cycle = 0
    for rec in records:
        cycle += max(1, round((rec.bubbles + 1) * cycles_per_instruction))
        out.append(MemTraceRecord(cycle,
                                  (rec.line_address & mask) << _LINE_SHIFT,
                                  rec.is_write))
    return out


def ingest_trace_file(path: str, org: Organization, *,
                      cycles_per_instruction: float = 1.0,
                      expected_sha256: Optional[str] = None
                      ) -> List[TraceRecord]:
    """Read, verify and normalize one external trace file.

    When ``expected_sha256`` is given (the hash a trace RunSpec was
    keyed with), the file's current content hash must match - a trace
    file silently edited after its spec was built would otherwise
    poison the content-addressed run cache with results keyed to the
    old bytes.
    """
    if expected_sha256 is not None:
        actual = trace_file_sha256(path)
        if actual != expected_sha256:
            raise TraceFormatError(
                path, None,
                f"content hash mismatch: spec was keyed to "
                f"{expected_sha256[:12]}..., file now hashes to "
                f"{actual[:12]}...")
    return normalize_records(read_mem_trace(path), org,
                             cycles_per_instruction=cycles_per_instruction)
