"""Workload fingerprints: RLTL distribution, RMPKC, row-hit rate.

A fingerprint characterises a request stream - synthetic or ingested -
by the three metrics the paper's motivation rests on (Figures 4a/7a
and the RLTL companion paper, arXiv 1805.03969):

* **t-RLTL** per interval: the fraction of row activations that occur
  within ``t`` of the *previous precharge of the same row* (charge
  leaks from precharge, so this is the fraction ChargeCache can
  accelerate).  Buckets are the paper's 0.125/0.25/0.5/1/8/32 ms set.
* **RMPKC**: activations per kilo CPU cycle - the memory-intensity
  axis of Figure 7a.
* **Row-hit rate**: fraction of accesses served from the open row.

The pass is a trace-level analytical model, not a simulation: one
idealized open-row bank model (the row stays open until a conflicting
activation, which precharges it), an IPC=1 clock (one CPU cycle per
instruction, so time is ``sum(bubbles+1)``), and the same
``time_scale`` convention as :class:`repro.stats.rltl.RLTLProbe`
(interval edges divided by ``time_scale`` so short scaled traces still
resolve the millisecond buckets).  Because it touches no controller,
scheduler or engine state, a fingerprint is deterministic for a given
record sequence - identical whichever simulation engine later replays
the trace, which is exactly what makes it usable as a calibration
reference.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.config import DEFAULT_CPU_FREQ_GHZ
from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
from repro.stats.metrics import rmpki
from repro.stats.rltl import RLTL_INTERVALS_MS

#: Mirrors :data:`repro.harness.spec.DEFAULT_TIME_SCALE` without
#: importing the harness layer (workloads must stay below it); a
#: calibration test asserts the two never drift apart.
DEFAULT_TIME_SCALE = 64.0

#: Records fingerprinted by default when a caller gives no budget.
DEFAULT_FINGERPRINT_RECORDS = 20_000


@dataclass(frozen=True)
class WorkloadFingerprint:
    """The measured locality signature of one request stream."""

    name: str
    records: int
    instructions: int
    activations: int
    cold_activations: int
    row_hits: int
    writes: int
    footprint_lines: int
    intervals_ms: Tuple[float, ...]
    rltl_counts: Tuple[int, ...]
    time_scale: float
    cpu_freq_ghz: float

    def rltl(self, interval_ms: float) -> float:
        """t-RLTL: fraction of activations within ``t`` of the same
        row's previous precharge (cold activations count in the
        denominator, as in :class:`~repro.stats.rltl.RLTLProbe`)."""
        try:
            idx = self.intervals_ms.index(interval_ms)
        except ValueError:
            raise KeyError(
                f"interval {interval_ms} ms not tracked; "
                f"tracked: {self.intervals_ms}") from None
        if not self.activations:
            return 0.0
        return self.rltl_counts[idx] / self.activations

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.records if self.records else 0.0

    @property
    def rmpkc(self) -> float:
        """RMPKC under the pass's IPC=1 clock (see module docstring)."""
        return rmpki(self.activations, self.instructions)

    @property
    def write_fraction(self) -> float:
        return self.writes / self.records if self.records else 0.0



def fingerprint_records(records: Iterable[TraceRecord],
                        org: Organization, *,
                        name: str = "trace",
                        intervals_ms: Tuple[float, ...] = RLTL_INTERVALS_MS,
                        time_scale: float = DEFAULT_TIME_SCALE,
                        cpu_freq_ghz: float = DEFAULT_CPU_FREQ_GHZ,
                        limit: Optional[int] = None
                        ) -> WorkloadFingerprint:
    """Fingerprint up to ``limit`` records of a request stream.

    The bank model is the idealized open-row policy: each bank holds
    one open row; an access to it is a row hit, an access to any other
    row precharges the open row (timestamping its "previous precharge")
    and activates the new one.  Activations of rows never seen
    precharging are "cold" and excluded from the RLTL numerator by
    definition.  Interval edges are ``ms / time_scale`` converted to
    CPU cycles at ``cpu_freq_ghz``.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    intervals_ms = tuple(sorted(intervals_ms))
    edges = [max(1, round(ms / time_scale * 1e6 * cpu_freq_ghz))
             for ms in intervals_ms]
    open_row: Dict[int, int] = {}
    last_pre: Dict[Tuple[int, int], int] = {}
    rltl_counts = [0] * len(intervals_ms)
    footprint = set()
    now = 0
    count = hits = writes = activations = cold = 0
    stream = records if limit is None else itertools.islice(records, limit)
    for rec in stream:
        now += rec.bubbles + 1
        count += 1
        footprint.add(rec.line_address)
        if rec.is_write:
            writes += 1
        decoded = org.decode(rec.line_address)
        bank = org.bank_index(decoded)
        current = open_row.get(bank)
        if current == decoded.row:
            hits += 1
            continue
        if current is not None:
            last_pre[(bank, current)] = now
        activations += 1
        prev = last_pre.get((bank, decoded.row))
        if prev is None:
            cold += 1
        else:
            gap = now - prev
            for i, edge in enumerate(edges):
                if gap <= edge:
                    rltl_counts[i] += 1
        open_row[bank] = decoded.row
    return WorkloadFingerprint(
        name=name, records=count, instructions=now,
        activations=activations, cold_activations=cold, row_hits=hits,
        writes=writes, footprint_lines=len(footprint),
        intervals_ms=intervals_ms, rltl_counts=tuple(rltl_counts),
        time_scale=time_scale, cpu_freq_ghz=cpu_freq_ghz)


def fingerprint_workload(name: str, org: Optional[Organization] = None, *,
                         seed: int = 1,
                         num_records: int = DEFAULT_FINGERPRINT_RECORDS,
                         time_scale: float = DEFAULT_TIME_SCALE
                         ) -> WorkloadFingerprint:
    """Fingerprint a named synthetic workload profile.

    Deterministic in (name, org, seed, num_records, time_scale): the
    generator is seeded exactly like a harness run's core-0 trace.
    """
    from repro.workloads.spec_like import make_trace
    org = org or Organization()
    trace = make_trace(name, org, seed=seed)
    return fingerprint_records(trace, org, name=name,
                               time_scale=time_scale, limit=num_records)


def fingerprint_file(path: str, org: Optional[Organization] = None, *,
                     cycles_per_instruction: float = 1.0,
                     time_scale: float = DEFAULT_TIME_SCALE,
                     limit: Optional[int] = None) -> WorkloadFingerprint:
    """Ingest an external trace file and fingerprint it."""
    from repro.workloads.ingest.normalize import ingest_trace_file
    org = org or Organization()
    records = ingest_trace_file(
        path, org, cycles_per_instruction=cycles_per_instruction)
    name = os.path.splitext(os.path.basename(path))[0]
    return fingerprint_records(records, org, name=name,
                               time_scale=time_scale, limit=limit)
