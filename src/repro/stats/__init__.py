"""Statistics: the RLTL and row-reuse probes and evaluation metrics."""

from repro.stats.probes import CompositeProbe
from repro.stats.reuse import RowReuseProfiler
from repro.stats.rltl import RLTLProbe, RLTL_INTERVALS_MS
from repro.stats.metrics import (
    ipc,
    weighted_speedup,
    speedup,
    rmpkc,
)

__all__ = [
    "CompositeProbe",
    "RowReuseProfiler",
    "RLTLProbe",
    "RLTL_INTERVALS_MS",
    "ipc",
    "weighted_speedup",
    "speedup",
    "rmpkc",
]
