"""The record of one simulation run.

:class:`RunResult` is what :class:`repro.cpu.system.System` returns
and what the harness memoises, stores, ships between pool processes
and reduces into figures.  It lives apart from the cycle-level model
so that a process that only declares, keys or recalls runs (and
reduces stored results) never imports the model (DESIGN.md section 3,
"Import only what a run executes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config import SimulationConfig

if TYPE_CHECKING:
    from repro.stats.reuse import RowReuseProfiler
    from repro.stats.rltl import RLTLProbe


@dataclass
class RunResult:
    """Everything the harness needs from one simulation run."""

    config: SimulationConfig
    mem_cycles: int
    cpu_cycles: int
    instructions: List[int]
    core_cycles: List[int]
    ipcs: List[float]
    llc_hit_rate: float
    llc_load_misses: int
    activations: int
    act_reduced: int
    reads: int
    writes: int
    refreshes: int
    row_hit_rate: float
    average_read_latency_cycles: float
    mechanism_lookups: int
    mechanism_hits: int
    active_bank_cycles: int
    rank_active_cycles: int = 0
    #: Total post-warmup instructions retired by all cores, including
    #: work done by cores that kept executing after reaching their
    #: instruction limit (trace-loop methodology).  Use this for
    #: iso-work comparisons such as energy per instruction.
    work_instructions: int = 0
    truncated: bool = False
    rltl: Optional[RLTLProbe] = None
    reuse: Optional[RowReuseProfiler] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mechanism_hit_rate(self) -> float:
        if not self.mechanism_lookups:
            return 0.0
        return self.mechanism_hits / self.mechanism_lookups

    @property
    def total_ipc(self) -> float:
        return sum(self.ipcs)

    def rmpkc(self) -> float:
        """Row misses (activations) per kilo CPU cycle."""
        if self.cpu_cycles <= 0:
            return 0.0
        return self.activations * 1000.0 / self.cpu_cycles
