"""Refresh scheduling and per-row refresh-age bookkeeping.

DDR3 auto-refresh: the controller issues one REF per rank every tREFI
(7.8 us); the device internally refreshes the next *refresh group* of
rows, cycling through all groups once per retention window (8192 REFs
per 64 ms).  A row belongs to one group (:meth:`RefreshScheduler.row_group`)
and its charge is replenished whenever its group is refreshed (or the
row itself is activated - that part is ChargeCache's observation and is
tracked by the controller, not here).

Because Python-scale simulations cover far less than 64 ms, the group
timestamps are *pre-seeded* so that at cycle 0 the refresh rotation is
already in steady state: group ``g`` was last refreshed at
``g * tREFI - window``.  The seed is a formula, not a table: only the
groups a run actually refreshes get a stored stamp.  Row refresh ages are then uniformly distributed
over [0, 64 ms) from the first simulated cycle, exactly as in a long
run.  This both drives the NUAT baseline realistically and reproduces
the paper's "~12% of activations fall within 8 ms of a refresh"
observation without simulating 64 ms of wall-clock DRAM time.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dram.timing import NEVER, TimingParameters


class RefreshScheduler:
    """Tracks refresh obligations and per-group refresh timestamps."""

    def __init__(self, timing: TimingParameters, num_ranks: int,
                 rows_per_bank: int, enabled: bool = True):
        self.timing = timing
        self.rows_per_bank = rows_per_bank
        self.enabled = enabled

        self.num_groups = timing.refreshes_per_window
        #: The pre-seed's offset: group g was last refreshed at
        #: ``g * tREFI - window`` until its first simulated REF.
        self._window = self.num_groups * timing.tREFI
        #: Per rank, ``group -> cycle`` of each group's last simulated
        #: REF; the seed formula supplies every group not in it, so a
        #: run stores only the groups it refreshes.
        self._stamps: List[Dict[int, int]] = [{} for _ in range(num_ranks)]
        # Next group each rank will refresh (continues the rotation).
        self._next_group = [0] * num_ranks
        self._next_due = [timing.tREFI] * num_ranks
        #: Earliest due cycle over all ranks (``NEVER`` when disabled):
        #: the controller's O(1) "no refresh due yet" test.
        self.first_due = timing.tREFI if enabled else NEVER

    # ------------------------------------------------------------------
    # Scheduling queries
    # ------------------------------------------------------------------

    def next_due(self, rank: int) -> int:
        """Bus cycle at which the next REF for ``rank`` becomes due."""
        return self._next_due[rank] if self.enabled else NEVER

    def rank_needs_refresh(self, rank: int, cycle: int) -> bool:
        return self.enabled and cycle >= self._next_due[rank]

    def on_refresh_issued(self, rank: int, cycle: int) -> None:
        """Record a REF: stamp the refreshed group and advance the clock."""
        group = self._next_group[rank]
        self._stamps[rank][group] = cycle
        self._next_group[rank] = (group + 1) % self.num_groups
        self._next_due[rank] += self.timing.tREFI
        if self.enabled:
            self.first_due = min(self._next_due)

    # ------------------------------------------------------------------
    # Refresh-age queries (used by NUAT and the RLTL profiler)
    # ------------------------------------------------------------------

    #: Multiplicative hash (Knuth) scattering rows over refresh groups.
    _GROUP_HASH = 2654435761

    def row_group(self, row: int) -> int:
        """Refresh group of ``row``.

        Rows are *hash-scattered* over the group rotation rather than
        mapped contiguously.  Real devices refresh rows in an
        implementation-defined sequential order, but with Python-scale
        runs a contiguous mapping would leave any footprint-limited
        workload stuck in one corner of the pre-seeded rotation.
        Scattering restores the property a long run has naturally: the
        refresh ages observed by *any* row subset are uniform over the
        retention window (which is also what makes the paper's ~12%
        refresh-recency fraction hold for every workload).
        """
        return (row * self._GROUP_HASH) % self.num_groups

    def row_refresh_age_cycles(self, rank: int, row: int, cycle: int) -> int:
        """Bus cycles since ``row`` was last refreshed."""
        group = self.row_group(row)
        stamp = self._stamps[rank].get(group)
        if stamp is None:
            stamp = group * self.timing.tREFI - self._window
        return max(0, cycle - stamp)
