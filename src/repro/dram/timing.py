"""DDR3 timing parameters.

All values are in DRAM bus cycles (800 MHz => 1.25 ns per cycle for
DDR3-1600).  The defaults reproduce Table 1 of the ChargeCache paper:
tRCD = 11 cycles (13.75 ns) and tRAS = 28 cycles (35 ns), with the
remaining constraints taken from the Micron DDR3-1600 datasheet the paper
cites [57].

Two structures are exported:

* :class:`TimingParameters` - the full constraint set for the device.
* :class:`ReducedTimings` - the (tRCD, tRAS) pair used for a given
  activation; latency mechanisms (ChargeCache, NUAT, LL-DRAM) return one
  of these per ACT.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sentinel cycle meaning "never" / "nothing pending", shared by every
#: layer's event-engine wake-up queries so bids compare consistently.
NEVER = 1 << 62


@dataclass(frozen=True)
class ReducedTimings:
    """The activation timings applied to a single ACT command.

    ``trcd`` gates ACT -> RD/WR on the same bank, ``tras`` gates
    ACT -> PRE.  A latency mechanism produces these per activation; for a
    normal (miss) activation they equal the device defaults.
    """

    trcd: int
    tras: int

    def min_with(self, other: "ReducedTimings") -> "ReducedTimings":
        """Combine two mechanisms; the more aggressive timing wins.

        Used for the ChargeCache + NUAT configuration, where an ACT may
        hit in either mechanism and the controller can legally use the
        lower of the two constraints for each parameter.
        """
        return ReducedTimings(min(self.trcd, other.trcd),
                              min(self.tras, other.tras))


@dataclass(frozen=True)
class TimingParameters:
    """Inter-command timing constraints, in bus cycles.

    The attribute names follow JEDEC/Ramulator conventions.  Derived
    constraints used by the bank/rank/channel state machines:

    * read-to-precharge: ``tRTP``
    * write-to-precharge: ``tCWL + tBL + tWR``
    * write-to-read turnaround (same rank): ``tCWL + tBL + tWTR``
    * read-to-write turnaround (channel): ``tCL + tBL + 2 - tCWL``
    """

    name: str = "DDR3-1600"
    freq_mhz: float = 800.0

    tRCD: int = 11   # ACT -> RD/WR, 13.75 ns
    tRAS: int = 28   # ACT -> PRE, 35 ns
    tRP: int = 11    # PRE -> ACT, 13.75 ns
    tCL: int = 11    # RD -> first data
    tCWL: int = 8    # WR -> first data
    tBL: int = 4     # burst of 8 on a DDR bus
    tCCD: int = 4    # column-to-column
    tRTP: int = 6    # read-to-precharge
    tWR: int = 12    # write recovery, 15 ns
    tWTR: int = 6    # write-to-read turnaround
    tRRD: int = 5    # ACT-to-ACT, different banks (6.25 ns, 8 KB page)
    tFAW: int = 24   # four-activate window (30 ns)
    tRFC: int = 208  # refresh cycle time (260 ns for a 4 Gb device)
    tREFI: int = 6250  # refresh interval (7.8125 us = 64 ms / 8192)
    tRTRS: int = 2   # rank-to-rank switch
    tCK_ns: float = 1.25

    #: Retention window assumed by the standard (64 ms); cells are
    #: guaranteed to sense correctly when refreshed at this period.
    retention_ms: float = 64.0

    # ------------------------------------------------------------------
    # Derived constraints
    # ------------------------------------------------------------------

    @property
    def tRC(self) -> int:
        """ACT-to-ACT on the same bank."""
        return self.tRAS + self.tRP

    @property
    def read_to_pre(self) -> int:
        return self.tRTP

    @property
    def write_to_pre(self) -> int:
        return self.tCWL + self.tBL + self.tWR

    @property
    def write_to_read(self) -> int:
        return self.tCWL + self.tBL + self.tWTR

    @property
    def read_to_write(self) -> int:
        return self.tCL + self.tBL + 2 - self.tCWL

    @property
    def read_latency(self) -> int:
        """Cycles from RD issue until the last data beat arrives."""
        return self.tCL + self.tBL

    # ------------------------------------------------------------------
    # Unit helpers
    # ------------------------------------------------------------------

    def ms_to_cycles(self, ms: float) -> int:
        return int(round(ms * 1e6 / self.tCK_ns))

    @property
    def refresh_window_cycles(self) -> int:
        """Bus cycles in one full retention window (64 ms by default)."""
        return self.ms_to_cycles(self.retention_ms)

    @property
    def refreshes_per_window(self) -> int:
        """Number of REF commands per retention window (8192 for DDR3)."""
        return max(1, self.refresh_window_cycles // self.tREFI)

    # ------------------------------------------------------------------
    # Reduced-timing constructors
    # ------------------------------------------------------------------

    def default_timings(self) -> ReducedTimings:
        """Timings for a normal (fully worst-case) activation."""
        return ReducedTimings(self.tRCD, self.tRAS)

    def reduced_by(self, trcd_cycles: int, tras_cycles: int) -> ReducedTimings:
        """Timings lowered by the given cycle counts (floored at 1)."""
        if trcd_cycles < 0 or tras_cycles < 0:
            raise ValueError("timing reductions must be non-negative")
        return ReducedTimings(max(1, self.tRCD - trcd_cycles),
                              max(1, self.tRAS - tras_cycles))

    def validate(self) -> None:
        names = ("tRCD", "tRAS", "tRP", "tCL", "tCWL", "tBL", "tCCD",
                 "tRTP", "tWR", "tWTR", "tRRD", "tFAW", "tRFC", "tREFI")
        for name in names:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 cycle")
        if self.tFAW < self.tRRD:
            raise ValueError("tFAW must be >= tRRD")
        if self.tREFI <= self.tRFC:
            raise ValueError("tREFI must exceed tRFC")


#: The paper's baseline device (Table 1).
DDR3_1600 = TimingParameters()
