"""Real-trace ingestion and workload fingerprinting.

External memory traces (gem5/Ramulator-style ``<cycle> <addr> <R|W>``
files) enter the repro here and only here, the one trace-file format
every run reads: :mod:`formats` parses them,
:mod:`normalize` maps them through the configured address mapping into
internal request streams, and :mod:`fingerprint` measures the locality
signature (RLTL distribution, RMPKC, row-hit rate) of any stream -
ingested or synthetic - against the reference table in
:mod:`reference`.
"""

from repro.workloads.ingest.formats import (
    MemTraceRecord,
    TraceFormatError,
    iter_mem_trace,
    read_gem5_stats,
    read_mem_trace,
    write_mem_trace,
)
from repro.workloads.ingest.normalize import (
    denormalize_records,
    ingest_trace_file,
    normalize_records,
    trace_file_sha256,
)
from repro.workloads.ingest.fingerprint import (
    DEFAULT_FINGERPRINT_RECORDS,
    WorkloadFingerprint,
    fingerprint_file,
    fingerprint_records,
    fingerprint_workload,
)
from repro.workloads.ingest.reference import (
    REFERENCE_FINGERPRINTS,
    REFERENCE_INTERVAL_MS,
    fingerprint_delta,
)

__all__ = [
    "MemTraceRecord",
    "TraceFormatError",
    "iter_mem_trace",
    "read_gem5_stats",
    "read_mem_trace",
    "write_mem_trace",
    "denormalize_records",
    "ingest_trace_file",
    "normalize_records",
    "trace_file_sha256",
    "DEFAULT_FINGERPRINT_RECORDS",
    "WorkloadFingerprint",
    "fingerprint_file",
    "fingerprint_records",
    "fingerprint_workload",
    "REFERENCE_FINGERPRINTS",
    "REFERENCE_INTERVAL_MS",
    "fingerprint_delta",
]
