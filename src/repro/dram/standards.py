"""Timing and power presets for the DDR-derived standards family
(paper Sections 6.2 and 7.2).

The paper argues ChargeCache applies unchanged to any standard with
explicit ACT/PRE commands (DDRx, GDDRx, LPDDRx, 3D-stacked stacks with
a logic-layer controller) and is *inapplicable* to RL-DRAM, whose
interface has no controller-visible activation.

Each standard is registered here as one :class:`StandardProfile`
bundling its timing preset with a datasheet-representative
:class:`~repro.energy.drampower.PowerParameters` IDD set, so a
config's ``dram.standard`` resolves *both* from one place
(:func:`profile` / :func:`profile_for_config`) and the timing and
energy models can never disagree about which device a run simulated.
The presets are representative datasheet values (bus cycles at the
named data rate, IDD classes for a mainstream density), sufficient to
demonstrate the mechanism end-to-end on non-DDR3 devices; they are not
complete JEDEC models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dram.timing import DDR3_1600, TimingParameters
from repro.energy.drampower import PowerParameters

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
    tRTRS=2,
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
    tRTRS=2,
)

#: GDDR5-like preset (shortened core timings, fast bus).
GDDR5_4000 = TimingParameters(
    name="GDDR5-4000",
    freq_mhz=2000.0,
    tCK_ns=0.5,
    tRCD=24,   # 12 ns
    tRAS=56,   # 28 ns
    tRP=24,
    tCL=24,
    tCWL=8,
    tBL=2,
    tCCD=2,
    tRTP=4,
    tWR=24,
    tWTR=10,
    tRRD=12,
    tFAW=46,
    tRFC=520,
    tREFI=7600,
    tRTRS=2,
)

# ----------------------------------------------------------------------
# Power presets (datasheet-representative IDD sets per standard)
# ----------------------------------------------------------------------

#: Micron DDR3-1600 4 Gb x8 (the paper's Table 1 device [57]); eight
#: x8 chips fill the 64-bit bus.  Matches
#: :class:`~repro.energy.drampower.PowerParameters`'s defaults.
DDR3_1600_POWER = PowerParameters(name="DDR3-1600")

#: DDR4-2400 8 Gb x8 at 1.2 V: lower supply than DDR3, slightly higher
#: standby/refresh currents for the doubled density.
DDR4_2400_POWER = PowerParameters(
    name="DDR4-2400",
    vdd=1.2,
    idd0_ma=58.0,
    idd2n_ma=34.0,
    idd3n_ma=44.0,
    idd4r_ma=150.0,
    idd4w_ma=145.0,
    idd5b_ma=235.0,
    chips_per_rank=8,
)

#: LPDDR3-1600 x32 at 1.2 V: mobile part, aggressively low standby
#: currents; two x32 dies cover the 64-bit bus.
LPDDR3_1600_POWER = PowerParameters(
    name="LPDDR3-1600",
    vdd=1.2,
    idd0_ma=32.0,
    idd2n_ma=9.0,
    idd3n_ma=16.0,
    idd4r_ma=180.0,
    idd4w_ma=160.0,
    idd5b_ma=140.0,
    chips_per_rank=2,
)

#: GDDR5 x32 at 1.5 V: graphics part trading current for bandwidth;
#: two x32 chips per 64-bit channel.
GDDR5_4000_POWER = PowerParameters(
    name="GDDR5-4000",
    vdd=1.5,
    idd0_ma=75.0,
    idd2n_ma=40.0,
    idd3n_ma=50.0,
    idd4r_ma=260.0,
    idd4w_ma=230.0,
    idd5b_ma=255.0,
    chips_per_rank=2,
)


# ----------------------------------------------------------------------
# Standard profiles: one timing + power bundle per standard
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StandardProfile:
    """Everything the harness knows about one DRAM standard.

    A profile is the single resolution point for a config's
    ``dram.standard``: :class:`repro.cpu.system.System` takes the
    ``timing`` half, the energy path
    (:func:`repro.energy.drampower.energy_for_run`) takes both halves,
    so a run can never be simulated on one standard's clock and billed
    at another's currents.  Profile names are the registry keys of
    :data:`PROFILES` and are embedded (via scenario names and
    ``DRAMConfig.standard``) in run-cache keys — never re-bind a name
    to a different device; add a new name instead.
    """

    name: str
    timing: TimingParameters
    power: PowerParameters

    def validate(self) -> None:
        if self.timing.name != self.name or self.power.name != self.name:
            raise ValueError(
                f"profile {self.name!r} bundles mismatched presets: "
                f"timing={self.timing.name!r}, power={self.power.name!r}")
        self.timing.validate()
        self.power.validate()


PROFILES: Dict[str, StandardProfile] = {
    prof.name: prof
    for prof in (
        StandardProfile("DDR3-1600", DDR3_1600, DDR3_1600_POWER),
        StandardProfile("DDR4-2400", DDR4_2400, DDR4_2400_POWER),
        StandardProfile("LPDDR3-1600", LPDDR3_1600, LPDDR3_1600_POWER),
        StandardProfile("GDDR5-4000", GDDR5_4000, GDDR5_4000_POWER),
    )
}
for _prof in PROFILES.values():
    _prof.validate()

#: Timing halves of :data:`PROFILES` (the pre-profile public surface;
#: derived so the two registries cannot drift apart).
PRESETS: Dict[str, TimingParameters] = {
    name: prof.timing for name, prof in PROFILES.items()
}


def profile(name: str) -> StandardProfile:
    """Look up a standard's timing+power profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown standard {name!r}; known: {sorted(PROFILES)}") from None


def profile_for_config(config) -> StandardProfile:
    """The profile a :class:`repro.config.SimulationConfig` runs on."""
    return profile(config.dram.standard)


def preset(name: str) -> TimingParameters:
    """Look up a standard's timing preset by name."""
    return profile(name).timing


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
    scenario, and a hand-built config can never disagree about the
    reductions a duration implies.
    """
    from repro.circuit.latency_tables import reductions_for_duration_ms
    trcd_d3, tras_d3 = reductions_for_duration_ms(duration_ms)
    return reduction_cycles_for(
        timing,
        trcd_reduction_ns=trcd_d3 * DDR3_1600.tCK_ns,
        tras_reduction_ns=tras_d3 * DDR3_1600.tCK_ns)
