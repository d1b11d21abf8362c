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

Table 1 fixes one system; the paper's figures vary only the cores,
channels, ranks, row policy, standard, mechanism and budgets.  What no
figure varies is a module constant below (clock, issue width, window,
MSHRs, line size, LLC hit latency, banks, row buffer, write-drain
watermarks), not a configuration field; the address mapping is the
one :class:`repro.dram.organization.Organization` implements, and the
scheduler the FR-FCFS every controller builds
(:class:`repro.controller.scheduler.FRFCFSScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: CPU clock frequency used throughout the paper's evaluation (Table 1).
DEFAULT_CPU_FREQ_GHZ = 4.0
#: Instructions a core dispatches per CPU cycle (Table 1).
ISSUE_WIDTH = 3
#: Instruction-window entries per core (Table 1).
WINDOW_SIZE = 128
#: Outstanding LLC load misses per core (Table 1).
MSHRS_PER_CORE = 8
#: Cache-line (and DRAM column) size in bytes (Table 1).
LINE_BYTES = 64
#: LLC hit latency in CPU cycles, a typical L3 lookup.
LLC_HIT_LATENCY_CYCLES = 24
#: Banks per DRAM rank (Table 1).
BANKS_PER_RANK = 8
#: DRAM row-buffer size in bytes (Table 1): 128 lines per row.
ROW_BUFFER_BYTES = 8 * 1024
#: A controller starts draining writes once its write queue holds this
#: fraction of its entries...
WRITE_HIGH_WATERMARK = 0.8
#: ... and stops once it is down to this fraction.
WRITE_LOW_WATERMARK = 0.2

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

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")


@dataclass(frozen=True)
class CacheConfig:
    """Shared last-level cache parameters (Table 1, "Last-level Cache")."""

    size_bytes: int = 4 * 1024 * 1024
    associativity: int = 16

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.associativity * LINE_BYTES)
        return max(1, sets)

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.size_bytes % (self.associativity * LINE_BYTES):
            raise ValueError("size must be divisible by assoc * line size")


#: Timing standard assumed when a configuration does not name one.
DEFAULT_STANDARD = "DDR3-1600"


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM organization (Table 1, "DRAM" row).

    ``standard`` names the device profile (:mod:`repro.dram.standards`)
    the run simulates, and is the only source of the device's timing
    constraints, its bus clock (hence the CPU/bus cycle ratio) and its
    IDD currents: :class:`repro.cpu.system.System` and the energy model
    both resolve it, so no run can be simulated on one device and
    clocked or billed as another.
    """

    channels: int = 1
    ranks_per_channel: int = 1
    rows_per_bank: int = 64 * 1024
    standard: str = DEFAULT_STANDARD

    def validate(self) -> None:
        for name in ("channels", "ranks_per_channel", "rows_per_bank"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            # The address mapping splits a line address into bit fields.
            if value & (value - 1):
                raise ValueError(
                    f"{name} must be a power of two, got {value}")
        from repro.dram.standards import PRESETS
        if self.standard not in PRESETS:
            raise ValueError(
                f"unknown DRAM standard {self.standard!r}; "
                f"known: {sorted(PRESETS)}")


@dataclass(frozen=True)
class ControllerConfig:
    """Per-channel memory-controller parameters (Table 1)."""

    read_queue_size: int = 64
    write_queue_size: int = 64
    row_policy: str = "open"   # or "closed"

    def validate(self) -> None:
        if self.row_policy not in ROW_POLICIES:
            raise ValueError(f"unknown row policy {self.row_policy!r}")


@dataclass(frozen=True)
class ChargeCacheConfig:
    """ChargeCache parameters (Table 1, "ChargeCache" row).

    The parameter block of the ``chargecache`` mechanism spec: a run
    sets these inline (``chargecache(entries=256,sharing=shared)``).
    ``entries`` is the per-core, per-channel HCRAC capacity.  A hit
    cuts tRCD/tRAS by Table 2's derating of the caching duration on the
    run's standard (:func:`repro.dram.standards.derated_reduction_cycles`),
    which for the paper's 1 ms on DDR3-1600 is tRCD 11->7, tRAS 28->20.
    """

    entries: int = 128
    associativity: int = 2
    caching_duration_ms: float = 1.0
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
class SimulationConfig:
    """Aggregate configuration for one simulation run."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    #: The latency-mechanism spec (:mod:`repro.core.registry`), the one
    #: home of every mechanism parameter.
    mechanism: str = "none"
    #: Simulation stops when every core retired this many instructions.
    instruction_limit: int = 100_000
    #: Statistics are reset after this many CPU cycles (cache warmup).
    warmup_cpu_cycles: int = 20_000
    #: When True, a core that reaches its instruction limit stops
    #: issuing (fixed-work methodology, used for energy comparisons);
    #: when False, finished cores keep executing to preserve memory
    #: pressure (trace-loop methodology, used for performance).
    idle_finished_cores: bool = False
    #: Simulation engine: "event" (default, skips idle cycles) or
    #: "dense" (tick-per-cycle reference implementation).
    engine: str = DEFAULT_ENGINE

    @property
    def cpu_cycles_per_mem_cycle(self) -> int:
        """CPU cycles per bus cycle of the configured standard."""
        from repro.dram.standards import preset
        ratio = DEFAULT_CPU_FREQ_GHZ * 1000.0 / \
            preset(self.dram.standard).freq_mhz
        return max(1, round(ratio))

    def validate(self) -> None:
        self.processor.validate()
        self.cache.validate()
        self.dram.validate()
        self.controller.validate()
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
