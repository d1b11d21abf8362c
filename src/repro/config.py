"""System configuration for the ChargeCache reproduction.

The defaults mirror Table 1 of the paper (HPCA 2016):

* Processor: 1-8 cores, 4 GHz, 3-wide issue, 8 MSHRs/core,
  128-entry instruction window.
* Last-level cache: 64 B lines, 16-way, 4 MB.
* Memory controller: 64-entry read/write queues, FR-FCFS,
  open-row policy for single-core and closed-row for multi-core runs.
* DRAM: DDR3-1600, 800 MHz bus, 1-2 channels, 1 rank/channel,
  8 banks/rank, 64K rows/bank, 8 KB row buffer.
* ChargeCache: 128 entries/core, 2-way, LRU, 1 ms caching duration,
  tRCD/tRAS reduced by 4/8 bus cycles on a hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: CPU clock frequency used throughout the paper's evaluation (Table 1).
DEFAULT_CPU_FREQ_GHZ = 4.0

#: DDR3-1600 bus frequency in MHz (Table 1).
DEFAULT_BUS_FREQ_MHZ = 800.0

#: Known row-buffer management policies (Section 3 of the paper).
ROW_POLICIES = ("open", "closed")

#: Known simulation engines.  "event" advances the clock directly to the
#: next cycle where anything observable can happen (command issue, read
#: completion, refresh, core wake-up); "dense" ticks every bus cycle.
#: Both produce bit-identical RunResult statistics (see
#: tests/integration/test_engine_parity.py).
ENGINES = ("event", "dense")

#: Engine used when a configuration does not name one.
DEFAULT_ENGINE = "event"


@dataclass(frozen=True)
class ProcessorConfig:
    """Core pipeline parameters (Table 1, "Processor" row)."""

    num_cores: int = 1
    freq_ghz: float = DEFAULT_CPU_FREQ_GHZ
    issue_width: int = 3
    retire_width: int = 4
    window_size: int = 128
    mshrs_per_core: int = 8

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if self.issue_width < 1 or self.retire_width < 1:
            raise ValueError("issue/retire width must be >= 1")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.mshrs_per_core < 1:
            raise ValueError("mshrs_per_core must be >= 1")


@dataclass(frozen=True)
class CacheConfig:
    """Shared last-level cache parameters (Table 1, "Last-level Cache")."""

    size_bytes: int = 4 * 1024 * 1024
    associativity: int = 16
    line_bytes: int = 64
    hit_latency_cycles: int = 24  # CPU cycles, typical L3 lookup latency

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.associativity * self.line_bytes)
        return max(1, sets)

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ValueError("size must be divisible by assoc * line size")


#: Timing standard assumed when a configuration does not name one.
DEFAULT_STANDARD = "DDR3-1600"


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM organization (Table 1, "DRAM" row).

    ``standard`` names the timing-grade preset
    (:mod:`repro.dram.standards`) the simulated devices follow;
    :class:`repro.cpu.system.System` resolves it to a
    :class:`~repro.dram.timing.TimingParameters` unless the caller
    injects explicit timing.  A non-default standard must agree with
    ``bus_freq_mhz`` (the CPU/DRAM clock ratio is derived from it); the
    default standard tolerates any bus frequency for backward
    compatibility with frequency-sweep configs that pass their own
    timing object.
    """

    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    rows_per_bank: int = 64 * 1024
    row_buffer_bytes: int = 8 * 1024
    bus_freq_mhz: float = DEFAULT_BUS_FREQ_MHZ
    address_mapping: str = "RoBaRaCoCh"
    standard: str = DEFAULT_STANDARD

    @property
    def columns_per_row(self) -> int:
        """Number of 64 B cache-line columns per row buffer."""
        return self.row_buffer_bytes // 64

    def validate(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "rows_per_bank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.row_buffer_bytes % 64:
            raise ValueError("row buffer must be a multiple of 64 B lines")
        from repro.dram.standards import PRESETS
        if self.standard not in PRESETS:
            raise ValueError(
                f"unknown DRAM standard {self.standard!r}; "
                f"known: {sorted(PRESETS)}")
        if self.standard != DEFAULT_STANDARD:
            preset_freq = PRESETS[self.standard].freq_mhz
            if abs(self.bus_freq_mhz - preset_freq) > 1e-6:
                raise ValueError(
                    f"bus_freq_mhz={self.bus_freq_mhz} does not match "
                    f"standard {self.standard!r} ({preset_freq} MHz); "
                    f"set both consistently")


@dataclass(frozen=True)
class ControllerConfig:
    """Per-channel memory-controller parameters (Table 1)."""

    read_queue_size: int = 64
    write_queue_size: int = 64
    scheduler: str = "frfcfs"  # or "fcfs"
    row_policy: str = "open"   # or "closed"
    #: Write drain starts above this occupancy fraction.
    write_high_watermark: float = 0.8
    #: Write drain stops below this occupancy fraction.
    write_low_watermark: float = 0.2

    def validate(self) -> None:
        if self.scheduler not in ("frfcfs", "fcfs"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.row_policy not in ROW_POLICIES:
            raise ValueError(f"unknown row policy {self.row_policy!r}")
        if not 0.0 < self.write_low_watermark < self.write_high_watermark <= 1.0:
            raise ValueError("watermarks must satisfy 0 < low < high <= 1")


@dataclass(frozen=True)
class ChargeCacheConfig:
    """ChargeCache parameters (Table 1, "ChargeCache" row).

    ``entries`` is the per-core, per-channel HCRAC capacity.  The timing
    reductions are expressed in DRAM bus cycles and correspond to the
    paper's 1 ms caching duration (tRCD 11->7, tRAS 28->20).
    """

    entries: int = 128
    associativity: int = 2
    caching_duration_ms: float = 1.0
    trcd_reduction_cycles: int = 4
    tras_reduction_cycles: int = 8
    #: "per-core" replicates one HCRAC per (core, channel) as in the paper;
    #: "shared" uses one table per channel (paper footnote 2, future work).
    sharing: str = "per-core"
    #: Idealised infinite-capacity table (Figure 9's "unlimited size").
    unbounded: bool = False
    #: Divides the caching duration used for invalidation pacing (only),
    #: so scaled-down Python runs still exercise the IIC/EC sweep at the
    #: same rate *relative to run length* as the paper's 1B-instruction
    #: runs.  The timing reductions applied on a hit always follow the
    #: physical (unscaled) caching duration.  1.0 = paper-literal.
    time_scale: float = 1.0

    def validate(self) -> None:
        if self.entries < 1:
            raise ValueError("entries must be >= 1")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.associativity < 1 or self.entries % self.associativity:
            raise ValueError("entries must be divisible by associativity")
        if self.caching_duration_ms <= 0:
            raise ValueError("caching duration must be positive")
        if self.sharing not in ("per-core", "shared"):
            raise ValueError(f"unknown sharing mode {self.sharing!r}")


@dataclass(frozen=True)
class NUATConfig:
    """NUAT baseline parameters (Shin et al., HPCA 2014; 5PB config)."""

    #: Refresh-age bin upper edges in milliseconds.  A row whose age falls
    #: in the first bin gets the most aggressive timings.
    bin_edges_ms: tuple = (6.0, 16.0, 32.0, 48.0, 64.0)

    def validate(self) -> None:
        edges = self.bin_edges_ms
        if not edges or list(edges) != sorted(edges):
            raise ValueError("bin edges must be sorted and non-empty")


@dataclass(frozen=True)
class ExecutionConfig:
    """How the harness executes runs — not *what* a run computes.

    These knobs never change simulation results, only wall-clock and
    storage behaviour, so they are **excluded from run-cache keys**
    (see DESIGN.md section 4): a result computed with ``jobs=8`` must
    satisfy a later ``jobs=1`` request and vice versa.

    ``jobs`` is the process-pool width for sweep fan-out: ``None``
    defers to the ``REPRO_JOBS`` environment variable (default serial),
    ``0`` means one worker per CPU, ``1`` forces serial in-process
    execution.  ``cache_dir`` is the persistent result store, the
    content-addressed envelope directory; ``None`` defers to
    ``REPRO_CACHE_DIR`` or ``~/.cache/chargecache-repro``.
    ``use_run_cache=False`` bypasses the persistent layer entirely
    (the in-memory memo still applies).
    """

    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    use_run_cache: bool = True

    def validate(self) -> None:
        if self.jobs is not None and self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one per CPU)")


@dataclass(frozen=True)
class SimulationConfig:
    """Aggregate configuration for one simulation run."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    chargecache: ChargeCacheConfig = field(default_factory=ChargeCacheConfig)
    nuat: NUATConfig = field(default_factory=NUATConfig)
    #: Harness execution policy (pool width, run-cache location).
    #: Never part of run-cache keys; see :class:`ExecutionConfig`.
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    mechanism: str = "none"
    #: Simulation stops when every core retired this many instructions.
    instruction_limit: int = 100_000
    #: Statistics are reset after this many CPU cycles (cache warmup).
    warmup_cpu_cycles: int = 20_000
    #: Random seed used by workload generators attached to this run.
    seed: int = 1
    #: When True, a core that reaches its instruction limit stops
    #: issuing (fixed-work methodology, used for energy comparisons);
    #: when False, finished cores keep executing to preserve memory
    #: pressure (trace-loop methodology, used for performance).
    idle_finished_cores: bool = False
    #: DRAM operating temperature; used by the AL-DRAM mechanism
    #: (Section 7.1).  85 C is the specified worst case.
    temperature_c: float = 85.0
    #: Simulation engine: "event" (default, skips idle cycles) or
    #: "dense" (tick-per-cycle reference implementation).
    engine: str = DEFAULT_ENGINE

    @property
    def cpu_cycles_per_mem_cycle(self) -> int:
        ratio = self.processor.freq_ghz * 1000.0 / self.dram.bus_freq_mhz
        return max(1, round(ratio))

    def validate(self) -> None:
        self.processor.validate()
        self.cache.validate()
        self.dram.validate()
        self.controller.validate()
        self.chargecache.validate()
        self.nuat.validate()
        self.execution.validate()
        # The mechanism is a registry spec, not a fixed menu: any
        # +-composition of registered mechanisms with inline parameter
        # overrides is legal (parse errors carry the details).
        from repro.core.registry import parse_mechanism_spec
        parse_mechanism_spec(self.mechanism)
        if self.instruction_limit < 1:
            raise ValueError("instruction_limit must be >= 1")
        if self.warmup_cpu_cycles < 0:
            raise ValueError("warmup must be >= 0")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")

    def with_mechanism(self, mechanism: str) -> "SimulationConfig":
        """Return a copy of this config with a different latency
        mechanism.

        The copy is re-validated so an invalid spec fails here, at the
        call site, rather than later inside a channel build.
        """
        cfg = replace(self, mechanism=mechanism)
        cfg.validate()
        return cfg

    def with_engine(self, engine: str) -> "SimulationConfig":
        """Return a copy of this config running on a different engine
        (re-validated, like :meth:`with_mechanism`)."""
        cfg = replace(self, engine=engine)
        cfg.validate()
        return cfg


def single_core_config(mechanism: str = "none", **overrides) -> SimulationConfig:
    """Paper's single-core system: 1 channel, open-row policy."""
    cfg = SimulationConfig(
        processor=ProcessorConfig(num_cores=1),
        dram=DRAMConfig(channels=1),
        controller=ControllerConfig(row_policy="open"),
        mechanism=mechanism,
    )
    cfg = replace(cfg, **overrides) if overrides else cfg
    cfg.validate()
    return cfg


def eight_core_config(mechanism: str = "none", **overrides) -> SimulationConfig:
    """Paper's eight-core system: 2 channels, closed-row policy."""
    cfg = SimulationConfig(
        processor=ProcessorConfig(num_cores=8),
        dram=DRAMConfig(channels=2),
        controller=ControllerConfig(row_policy="closed"),
        mechanism=mechanism,
    )
    cfg = replace(cfg, **overrides) if overrides else cfg
    cfg.validate()
    return cfg
