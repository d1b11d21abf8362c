"""Command-level DRAM energy model (the paper's DRAMPower substitute).

Energy is computed from the simulator's post-warmup command counts and
state-residency using the standard IDDx current-class decomposition
(DRAMPower methodology, shared by the DDRx/LPDDRx/GDDRx family):

* **ACT/PRE pair**: ``(IDD0*tRC - IDD3N*tRAS - IDD2N*(tRC-tRAS)) * VDD``
  per activation - the charge above the standby floor.
* **Read / write burst**: ``(IDD4R/W - IDD3N) * VDD * tBurst``.
* **Refresh**: ``(IDD5B - IDD2N) * VDD * tRFC``.
* **Background**: ``IDD3N`` while >= 1 bank is open (active standby),
  ``IDD2N`` otherwise (precharged standby).

The decomposition is standard-independent; only the parameters change.
:class:`PowerParameters` holds one device's IDD classes and supply
voltage; its defaults are the paper's DDR3-1600 device, the one
standard with a current set.  :func:`energy_for_run` bills a run with
the clock of its config's standard and those currents, and raises for
a run on any other standard rather than bill it at DDR3's currents;
:func:`energy_components` prices raw counts on any explicit
timing/power pair.

ChargeCache reduces DRAM energy through exactly two terms the model
captures: a shorter run (less background energy for the same work) and
earlier precharges on reduced-tRAS activations (less active standby).
The ChargeCache table's own power (from :mod:`repro.energy.mcpat`) is
charged against the mechanism, as the paper does in Section 6.2.

Currents are per DRAM device; a rank has ``chips_per_rank`` devices
sharing the 64-bit bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import RANKS_PER_CHANNEL
from repro.dram.timing import TimingParameters


@dataclass(frozen=True)
class PowerParameters:
    """IDD current classes (mA) and supply voltage for one device.

    The defaults follow a Micron DDR3-1600 4 Gb x8 datasheet (the
    device the paper's Table 1 cites [57]); eight x8 chips fill the
    64-bit bus.
    """

    name: str = "DDR3-1600"
    vdd: float = 1.5
    idd0_ma: float = 55.0    # one-bank ACT->PRE cycling
    idd2n_ma: float = 32.0   # precharged standby
    idd3n_ma: float = 38.0   # active standby
    idd4r_ma: float = 157.0  # burst read
    idd4w_ma: float = 128.0  # burst write
    idd5b_ma: float = 210.0  # burst refresh
    chips_per_rank: int = 8

    def validate(self) -> None:
        if self.vdd <= 0 or self.chips_per_rank < 1:
            raise ValueError("voltage/chips must be positive")
        for field in ("idd0_ma", "idd2n_ma", "idd3n_ma", "idd4r_ma",
                      "idd4w_ma", "idd5b_ma"):
            if getattr(self, field) <= 0:
                raise ValueError(
                    f"{self.name}: {field} must be positive, "
                    f"got {getattr(self, field)}")
        if self.idd3n_ma < self.idd2n_ma:
            raise ValueError(
                f"{self.name}: IDD3N ({self.idd3n_ma} mA) must be >= "
                f"IDD2N ({self.idd2n_ma} mA)")
        # Burst terms subtract the standby floor they sit on top of; a
        # burst current below it would yield silently negative read/
        # write/refresh energy components.
        if self.idd4r_ma < self.idd3n_ma or self.idd4w_ma < self.idd3n_ma:
            raise ValueError(
                f"{self.name}: IDD4R/IDD4W ({self.idd4r_ma}/"
                f"{self.idd4w_ma} mA) must be >= IDD3N "
                f"({self.idd3n_ma} mA)")
        if self.idd5b_ma < self.idd2n_ma:
            raise ValueError(
                f"{self.name}: IDD5B ({self.idd5b_ma} mA) must be >= "
                f"IDD2N ({self.idd2n_ma} mA)")


@dataclass
class EnergyBreakdown:
    """Per-component DRAM energy for one run, in picojoules."""

    act_pre_pj: float
    read_pj: float
    write_pj: float
    refresh_pj: float
    background_active_pj: float
    background_precharged_pj: float
    mechanism_pj: float = 0.0

    @property
    def background_pj(self) -> float:
        return self.background_active_pj + self.background_precharged_pj

    @property
    def total_pj(self) -> float:
        return (self.act_pre_pj + self.read_pj + self.write_pj
                + self.refresh_pj + self.background_pj + self.mechanism_pj)


def _pj(current_ma: float, vdd: float, time_ns: float) -> float:
    """mA * V * ns = pJ."""
    return current_ma * vdd * time_ns


def energy_components(activations: int, reads: int, writes: int,
                      refreshes: int, rank_active_cycles: int,
                      total_rank_cycles: int,
                      timing: TimingParameters,
                      power: Optional[PowerParameters] = None,
                      mechanism_pj: float = 0.0) -> EnergyBreakdown:
    """Energy breakdown from raw counts (all ranks aggregated).

    Args:
        rank_active_cycles: sum over ranks of any-bank-open cycles.
        total_rank_cycles: ranks * run-length cycles.
    """
    if power is None:
        power = PowerParameters()
    power.validate()
    for what, value in (("activations", activations), ("reads", reads),
                        ("writes", writes), ("refreshes", refreshes),
                        ("rank_active_cycles", rank_active_cycles),
                        ("total_rank_cycles", total_rank_cycles)):
        if value < 0:
            raise ValueError(f"{what} must be non-negative, got {value}")
    if rank_active_cycles > total_rank_cycles:
        raise ValueError("active cycles exceed total rank cycles")
    if mechanism_pj < 0:
        raise ValueError("mechanism energy must be non-negative")
    tck = timing.tCK_ns
    chips = power.chips_per_rank
    vdd = power.vdd

    act_each = (power.idd0_ma * timing.tRC
                - power.idd3n_ma * timing.tRAS
                - power.idd2n_ma * timing.tRP) * vdd * tck
    act_pre = max(0.0, act_each) * activations * chips

    read = _pj(power.idd4r_ma - power.idd3n_ma, vdd,
               reads * timing.tBL * tck) * chips
    write = _pj(power.idd4w_ma - power.idd3n_ma, vdd,
                writes * timing.tBL * tck) * chips
    refresh = _pj(power.idd5b_ma - power.idd2n_ma, vdd,
                  refreshes * timing.tRFC * tck) * chips

    bg_active = _pj(power.idd3n_ma, vdd,
                    rank_active_cycles * tck) * chips
    bg_pre = _pj(power.idd2n_ma, vdd,
                 (total_rank_cycles - rank_active_cycles) * tck) * chips

    return EnergyBreakdown(act_pre, read, write, refresh, bg_active,
                           bg_pre, mechanism_pj)


#: The one device with an IDD current set: the paper's DDR3-1600.
DDR3_1600_POWER = PowerParameters()


def _timing(result) -> TimingParameters:
    """The timing preset of the standard ``result``'s config names."""
    from repro.dram.standards import preset
    return preset(result.config.dram.standard)


def run_seconds(result) -> float:
    """Wall-clock length of a run in its own standard's bus clock."""
    return result.mem_cycles * _timing(result).tCK_ns * 1e-9


def access_rate_for_run(result) -> float:
    """HCRAC accesses (ACT + RD + WR) per second of run time.

    Feeds :meth:`repro.energy.mcpat.HCRACOverhead.average_power_w`;
    the denominator uses the run's own clock, so the rate is correct
    on every standard, not just DDR3.
    """
    seconds = run_seconds(result)
    if seconds <= 0:
        return 0.0
    return (result.activations + result.reads + result.writes) / seconds


def energy_for_run(result, mechanism_power_w: float = 0.0
                   ) -> EnergyBreakdown:
    """Energy breakdown for a :class:`repro.cpu.result.RunResult`.

    The run is billed with its standard's clock and
    :data:`DDR3_1600_POWER`'s currents; a run on a standard without a
    current set raises ``ValueError``.

    ``mechanism_power_w`` is the average power of the latency
    mechanism's hardware (e.g. ChargeCache's HCRAC from
    :func:`repro.energy.mcpat.hcrac_overhead`), integrated over the run.
    """
    cfg = result.config
    standard = cfg.dram.standard
    if standard != DDR3_1600_POWER.name:
        raise ValueError(
            f"no IDD currents for a {standard} run: only "
            f"{DDR3_1600_POWER.name} has a current set")
    ranks = cfg.dram.channels * RANKS_PER_CHANNEL
    total_rank_cycles = ranks * result.mem_cycles
    mechanism_pj = mechanism_power_w * run_seconds(result) * 1e12
    return energy_components(
        activations=result.activations,
        reads=result.reads,
        writes=result.writes,
        refreshes=result.refreshes,
        rank_active_cycles=result.rank_active_cycles,
        total_rank_cycles=total_rank_cycles,
        timing=_timing(result),
        power=DDR3_1600_POWER,
        mechanism_pj=mechanism_pj,
    )
