"""Evaluation metrics (paper Section 5).

* Single-core performance: **IPC** (instructions per cycle).
* Multi-core performance: **weighted speedup** (Snavely & Tullsen
  [87]; Eyerman & Eeckhout [26] show it measures system throughput):
  ``WS = sum_i IPC_i(shared) / IPC_i(alone)``.
* Activation intensity: **RMPKC** - row misses (activations) per
  kilo-cycle, the x-axis annotation of Figure 7.
"""

from __future__ import annotations

from typing import Sequence


def ipc(instructions: int, cycles: int) -> float:
    """Instructions per cycle; 0 when no cycles elapsed."""
    return instructions / cycles if cycles else 0.0


def weighted_speedup(shared_ipcs: Sequence[float],
                     alone_ipcs: Sequence[float]) -> float:
    """Sum of per-core slowdown-normalised IPCs.

    Raises ValueError on length mismatch; cores with zero alone-IPC
    (e.g. a core that retired nothing in a scaled run) contribute zero
    rather than dividing by zero.
    """
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("shared/alone IPC lists differ in length")
    total = 0.0
    for shared, alone in zip(shared_ipcs, alone_ipcs):
        if alone > 0:
            total += shared / alone
    return total


def speedup(metric_new: float, metric_base: float) -> float:
    """Relative improvement: ``new / base - 1`` (0 when base is 0)."""
    if metric_base == 0:
        return 0.0
    return metric_new / metric_base - 1.0


def rmpkc(activations: int, cpu_cycles: int) -> float:
    """Row misses (activations) per kilo CPU cycle."""
    if cpu_cycles <= 0:
        return 0.0
    return activations * 1000.0 / cpu_cycles


def rmpki(activations: int, instructions: int) -> float:
    """Row misses per kilo instruction - the trace-level RMPKC proxy.

    A trace has no clock until it is simulated; under the IPC=1
    idealization the fingerprint pass uses (one CPU cycle per
    instruction), misses-per-kilo-instruction *is* misses-per-kilo-
    cycle, so workload fingerprints and simulated RMPKC are directly
    comparable.
    """
    if instructions <= 0:
        return 0.0
    return activations * 1000.0 / instructions
