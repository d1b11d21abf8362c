"""Experiment harness: one figure-table entry per paper table/figure.

Every artifact of the paper's evaluation is an entry of
:data:`repro.harness.experiments.FIGURES` (a sweep plus a reducer) and
is regenerated with :func:`repro.harness.experiments.run`
(programmatic), the ``benchmarks/`` pytest-benchmark suite, or the
``chargecache-harness`` CLI — all three read the same table.
"""

from repro.harness.spec import RunSpec, Scale, current_scale
from repro.harness.cache import RunCache, cache_key, code_fingerprint
from repro.harness.pool import Sweep, SweepError, SweepPoint, execute_sweep
from repro.harness.runner import (
    build_config,
    run_spec,
    clear_caches,
    clear_memo,
    configure_disk_cache,
    workload_spec,
    mix_spec,
    alone_spec,
)
from repro.harness.experiments import FIGURES, Figure, run
from repro.harness.report import format_table, format_percent

__all__ = [
    "RunSpec",
    "Scale",
    "RunCache",
    "cache_key",
    "code_fingerprint",
    "Sweep",
    "SweepError",
    "SweepPoint",
    "execute_sweep",
    "current_scale",
    "build_config",
    "run_spec",
    "clear_caches",
    "clear_memo",
    "configure_disk_cache",
    "workload_spec",
    "mix_spec",
    "alone_spec",
    "FIGURES",
    "Figure",
    "run",
    "format_table",
    "format_percent",
]
