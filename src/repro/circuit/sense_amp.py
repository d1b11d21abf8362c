"""Sense-amplifier transient model (the reproduction's "SPICE").

After charge sharing, the cross-coupled sense amplifier regeneratively
drives the bitline from ``Vdd/2 + delta`` toward Vdd while the cell
recharges through its access transistor.  We model the coupled system
with two ODEs integrated by RK4:

    dVb/dt = (x / tau_sa) * (1 - x / x_max)          # regeneration
             - (Cc/Cb) * (Vb - Vc) / tau_cell        # cell loading
    dVc/dt = (Vb - Vc) / tau_cell                    # cell restore

where ``x = Vb - Vdd/2`` is the bitline deviation.  The logistic first
term captures the amplifier's small-signal slowness near the
metastable point and its saturation near the rail; the loading term
makes a depleted cell *drag* on the bitline, which is what widens the
restore-time (tRAS) gap beyond the ready-time (tRCD) gap - the paper's
Figure 6 shows 4.5 ns of tRCD headroom but 9.6 ns of tRAS headroom.

A fixed ``t_offset_ns`` models wordline rise plus charge-sharing time
before regeneration starts.

The four free constants (tau_sa, tau_cell, t_offset, retention tau in
:mod:`repro.circuit.cell`) are calibrated against Figure 6's anchors:
fully-charged ready at ~10 ns, 64 ms-old ready at ~14.5 ns, and a
~9.6 ns restore-time gap.  ``tests/circuit`` asserts the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.circuit.cell import (
    CellParameters,
    cell_voltage_after,
    charge_sharing_voltage,
)


@dataclass(frozen=True)
class SenseAmpParameters:
    """Dynamic constants of the regeneration/restore model."""

    tau_sa_ns: float = 2.4       # regeneration time constant
    tau_cell_ns: float = 1.5     # cell restore RC through the access FET
    t_offset_ns: float = 6.5     # wordline rise + charge sharing
    dt_ns: float = 0.02          # RK4 step
    #: Access-transistor overdrive weakening: a depleted cell recharges
    #: through an effectively larger RC, tau_cell * (1 + w * deficit),
    #: where deficit = (Vdd - V_initial)/Vdd.  This is what makes the
    #: tRAS (restore) headroom ~2x the tRCD (ready) headroom in the
    #: paper's Figure 6 (9.6 ns vs 4.5 ns).
    restore_weakening: float = 4.0


@dataclass
class TransientResult:
    """Sampled waveforms and extracted latencies for one activation."""

    times_ns: List[float]
    bitline_v: List[float]
    cell_v: List[float]
    ready_time_ns: Optional[float]
    restore_time_ns: Optional[float]
    initial_cell_v: float


class SenseAmpModel:
    """RK4 integrator for the coupled bitline/cell system."""

    def __init__(self, cell: CellParameters = CellParameters(),
                 amp: SenseAmpParameters = SenseAmpParameters()):
        self.cell = cell
        self.amp = amp

    # ------------------------------------------------------------------

    def _derivatives(self, vb: float, vc: float, tau_cell_eff: float):
        cell = self.cell
        amp = self.amp
        x = vb - cell.precharge_voltage
        x_max = cell.vdd - cell.precharge_voltage
        if x <= 0:
            regen = 0.0
        else:
            regen = (x / amp.tau_sa_ns) * (1.0 - x / x_max)
            if regen < 0:
                regen = 0.0
        coupling = (vb - vc) / tau_cell_eff
        load_ratio = cell.cell_capacitance_f / cell.bitline_capacitance_f
        dvb = regen - load_ratio * coupling
        dvc = coupling
        return dvb, dvc

    def restore_tau_ns(self, initial_cell_v: float) -> float:
        """Effective cell-restore RC for a given initial cell voltage."""
        deficit = max(0.0, (self.cell.vdd - initial_cell_v) / self.cell.vdd)
        return self.amp.tau_cell_ns \
            * (1.0 + self.amp.restore_weakening * deficit)

    def simulate(self, age_ms: float, t_end_ns: float = 60.0,
                 record_every: int = 5,
                 stop_early: bool = True) -> TransientResult:
        """Activate a cell last charged ``age_ms`` ago.

        Returns waveforms plus the extracted ready (bitline crosses the
        ready-to-access level) and restore (cell crosses the restored
        level) times, both measured from the ACT command.  With
        ``stop_early`` (the default) integration stops once both
        latencies are known; pass False to record the full waveform up
        to ``t_end_ns`` (Figure 6 curves).
        """
        cell = self.cell
        amp = self.amp
        v_init = cell_voltage_after(age_ms, cell)
        v_share = charge_sharing_voltage(v_init, cell)

        vb = v_share
        vc = v_share
        dt = amp.dt_ns
        t = amp.t_offset_ns
        times = [0.0, t]
        bitline = [cell.precharge_voltage, vb]
        cells = [v_init, vc]
        ready: Optional[float] = None
        restore: Optional[float] = None
        step = 0
        ready_v = cell.ready_voltage
        restore_v = cell.restore_voltage
        tau_cell_eff = self.restore_tau_ns(v_init)

        while t < t_end_ns and (not stop_early or ready is None
                                or restore is None):
            k1b, k1c = self._derivatives(vb, vc, tau_cell_eff)
            k2b, k2c = self._derivatives(vb + 0.5 * dt * k1b,
                                         vc + 0.5 * dt * k1c, tau_cell_eff)
            k3b, k3c = self._derivatives(vb + 0.5 * dt * k2b,
                                         vc + 0.5 * dt * k2c, tau_cell_eff)
            k4b, k4c = self._derivatives(vb + dt * k3b, vc + dt * k3c,
                                         tau_cell_eff)
            vb += dt * (k1b + 2 * k2b + 2 * k3b + k4b) / 6.0
            vc += dt * (k1c + 2 * k2c + 2 * k3c + k4c) / 6.0
            vb = min(vb, cell.vdd)
            vc = min(vc, cell.vdd)
            t += dt
            step += 1
            if ready is None and vb >= ready_v:
                ready = t
            if restore is None and vc >= restore_v:
                restore = t
            if step % record_every == 0:
                times.append(t)
                bitline.append(vb)
                cells.append(vc)

        times.append(t)
        bitline.append(vb)
        cells.append(vc)
        return TransientResult(times, bitline, cells, ready, restore,
                               v_init)
