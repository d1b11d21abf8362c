"""Row-Level Temporal Locality (RLTL) profiling - paper Section 3.

The paper defines *t-RLTL* as the fraction of row activations that
occur within time ``t`` after the **previous precharge of the same
row** (charge starts leaking only at precharge).  It contrasts this
with the fraction of activations landing within ``t`` of the row's last
**refresh**, which is what NUAT can exploit.

The probe hooks the controller's ACT/PRE issue points and bins each
activation's

* time-since-own-precharge into the paper's interval set
  (0.125/0.25/0.5/1/8/32 ms), and
* time-since-refresh into the same set (using the refresh scheduler's
  steady-state group timestamps, so short runs still sample refresh
  ages uniformly over the retention window).

Activations of rows never seen precharging during the run ("cold"
activations) count toward ``activations`` only; they are *not* RLTL by
definition.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.dram.timing import TimingParameters

#: Intervals plotted in Figures 3 and 4, in milliseconds.
RLTL_INTERVALS_MS: Tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 8.0, 32.0)


class RLTLProbe:
    """Accumulates RLTL and refresh-age statistics per activation."""

    def __init__(self, timing: TimingParameters,
                 refresh_schedulers=None,
                 intervals_ms: Tuple[float, ...] = RLTL_INTERVALS_MS,
                 time_scale: float = 1.0):
        """
        Args:
            time_scale: divides the RLTL interval edges (only), so that
                a Python-scale run of ~100 us of simulated DRAM time
                can still resolve the paper's 0.125-32 ms interval
                sweep.  Refresh ages are physical (the refresh
                scheduler's steady-state rotation spans the real 64 ms
                window) and are *never* scaled.  ``time_scale=1`` gives
                the paper's literal definition.
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.timing = timing
        self.time_scale = time_scale
        self.intervals_ms = tuple(sorted(intervals_ms))
        self._interval_cycles = [
            max(1, timing.ms_to_cycles(ms / time_scale))
            for ms in self.intervals_ms]
        self._refresh_interval_cycles = [timing.ms_to_cycles(ms)
                                         for ms in self.intervals_ms]
        #: channel index -> RefreshScheduler (set after controllers exist)
        self.refresh_schedulers: Dict[int, object] = \
            dict(refresh_schedulers or {})
        self._last_pre: Dict[Tuple[int, int, int, int], int] = {}
        self.reset()

    # ------------------------------------------------------------------
    # Controller hooks
    # ------------------------------------------------------------------

    def on_activate(self, channel: int, rank: int, bank: int, row: int,
                    cycle: int) -> None:
        self.activations += 1
        key = (channel, rank, bank, row)
        last_pre = self._last_pre.get(key)
        if last_pre is not None:
            gap = cycle - last_pre
            for i, edge in enumerate(self._interval_cycles):
                if gap <= edge:
                    self.rltl_counts[i] += 1
        refresh = self.refresh_schedulers.get(channel)
        if refresh is not None:
            age = refresh.row_refresh_age_cycles(rank, row, cycle)
            for i, edge in enumerate(self._refresh_interval_cycles):
                if age <= edge:
                    self.refresh_counts[i] += 1

    def on_precharge(self, channel: int, rank: int, bank: int, row: int,
                     cycle: int) -> None:
        self.precharges += 1
        self._last_pre[(channel, rank, bank, row)] = cycle

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def rltl(self, interval_ms: float) -> float:
        """t-RLTL: fraction of activations within ``t`` of own precharge."""
        idx = self._interval_index(interval_ms)
        if not self.activations:
            return 0.0
        return self.rltl_counts[idx] / self.activations

    def refresh_fraction(self, interval_ms: float) -> float:
        """Fraction of activations within ``t`` of the row's refresh."""
        idx = self._interval_index(interval_ms)
        if not self.activations:
            return 0.0
        return self.refresh_counts[idx] / self.activations

    def _interval_index(self, interval_ms: float) -> int:
        try:
            return self.intervals_ms.index(interval_ms)
        except ValueError:
            raise KeyError(
                f"interval {interval_ms} ms not tracked; "
                f"tracked: {self.intervals_ms}") from None

    def reset(self) -> None:
        self.activations = 0
        self.precharges = 0
        self.rltl_counts = [0] * len(self.intervals_ms)
        self.refresh_counts = [0] * len(self.intervals_ms)
        # Precharge history is deliberately retained across resets:
        # warmup-period precharges legitimately precede post-warmup
        # activations.
