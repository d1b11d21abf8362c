"""Timing presets for the DDR-derived standards (paper Section 7.2).

The paper argues ChargeCache applies unchanged to any standard with
explicit ACT/PRE commands (DDRx, GDDRx, LPDDRx, 3D-stacked stacks with
a logic-layer controller) and is *inapplicable* to RL-DRAM, whose
interface has no controller-visible activation.

Besides the paper's DDR3-1600 (:data:`repro.dram.timing.DDR3_1600`),
two grades are modelled so the single-core system can run on them
(``benchmarks/bench_section7_extensions.py``).  A config's
``dram.standard`` names one of :data:`PRESETS`, which sets the run's
timing and bus clock.  The presets are representative datasheet
values (bus cycles at the named data rate), sufficient to demonstrate
the mechanism end-to-end on non-DDR3 devices; they are not complete
JEDEC models.  Only DDR3-1600 has an IDD current set
(:mod:`repro.energy.drampower`).
"""

from __future__ import annotations

from typing import Dict

from repro.dram.timing import DDR3_1600, TimingParameters

#: DDR4-2400: 1200 MHz bus, tCK = 0.833 ns.
DDR4_2400 = TimingParameters(
    name="DDR4-2400",
    freq_mhz=1200.0,
    tCK_ns=1000.0 / 1200.0,
    tRCD=16,   # 13.32 ns
    tRAS=39,   # 32.5 ns
    tRP=16,
    tCL=16,
    tCWL=12,
    tBL=4,
    tCCD=6,    # tCCD_L
    tRTP=9,
    tWR=18,    # 15 ns
    tWTR=9,    # tWTR_L
    tRRD=6,    # tRRD_L
    tFAW=32,
    tRFC=420,  # 350 ns (8 Gb)
    tREFI=9375,  # 7.8125 us
)

#: LPDDR3-1600: 800 MHz bus; relaxed core timings vs DDR3.
LPDDR3_1600 = TimingParameters(
    name="LPDDR3-1600",
    freq_mhz=800.0,
    tCK_ns=1.25,
    tRCD=15,   # 18.75 ns
    tRAS=34,   # 42.5 ns
    tRP=15,
    tCL=12,
    tCWL=6,
    tBL=4,
    tCCD=4,
    tRTP=6,
    tWR=12,
    tWTR=6,
    tRRD=8,    # 10 ns
    tFAW=40,   # 50 ns
    tRFC=168,  # 210 ns
    tREFI=3125,  # 3.906 us (LPDDR refreshes 2x as often)
)

#: Every timing preset by standard name.  Names are cache-key
#: material (through ``DRAMConfig.standard`` in a run's config), so
#: never re-bind a name to a different device; add a new name instead.
PRESETS: Dict[str, TimingParameters] = {
    timing.name: timing for timing in (DDR3_1600, DDR4_2400, LPDDR3_1600)
}


def preset(name: str) -> TimingParameters:
    """Look up a standard's timing preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown standard {name!r}; known: {sorted(PRESETS)}") from None


def reduction_cycles_for(timing: TimingParameters,
                         trcd_reduction_ns: float = 5.0,
                         tras_reduction_ns: float = 10.0):
    """(tRCD, tRAS) reduction *cycle counts* for a standard.

    The charge headroom is a physical quantity in nanoseconds; each
    standard sees it as a different number of bus cycles.  Reductions
    are floored conservatively and clamped so the reduced timing never
    drops below one cycle.
    """
    trcd_red = int(trcd_reduction_ns / timing.tCK_ns)
    tras_red = int(tras_reduction_ns / timing.tCK_ns)
    trcd_red = min(trcd_red, timing.tRCD - 1)
    tras_red = min(tras_red, timing.tRAS - 1)
    return max(0, trcd_red), max(0, tras_red)


def derated_reduction_cycles(timing: TimingParameters,
                             duration_ms: float):
    """Table 2 derating for a caching duration, in ``timing``'s cycles.

    The single source of truth for turning a caching duration into
    (tRCD, tRAS) reduction cycle counts: look the duration up in the
    paper's Table 2 derating (expressed in DDR3-1600 cycles), convert
    to physical nanoseconds, then re-express in ``timing``'s bus
    clock.  For DDR3-1600 this round-trips exactly.  ChargeCache and
    LL-DRAM call this on their channel's timing, so a spec string, a
    platform, and a hand-built config can never disagree about the
    reductions a duration implies.
    """
    from repro.circuit.latency_tables import reductions_for_duration_ms
    trcd_d3, tras_d3 = reductions_for_duration_ms(duration_ms)
    return reduction_cycles_for(
        timing,
        trcd_reduction_ns=trcd_d3 * DDR3_1600.tCK_ns,
        tras_reduction_ns=tras_d3 * DDR3_1600.tCK_ns)
