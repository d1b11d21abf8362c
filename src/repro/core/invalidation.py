"""HCRAC entry invalidation schemes (paper Section 4.2.3).

The paper proposes a two-counter periodic scheme instead of per-entry
expiry timestamps:

* **IIC** (Invalidation Interval Counter) counts cycles up to ``C/k``,
  where ``C`` is the number of cycles a row stays highly charged (the
  caching duration) and ``k`` the number of HCRAC entries.
* **EC** (Entry Counter) points at the next entry to invalidate; each
  time IIC wraps, entry EC is invalidated and EC advances.

Every entry is therefore invalidated (at least) once every ``C`` cycles,
guaranteeing no valid entry is older than the caching duration, at the
cost of occasionally invalidating a *younger* entry prematurely (the
paper measures this loss as negligible; we do too - see
``tests/core/test_invalidation.py``, which checks this scheme against
the exact per-entry timestamp design the paper rejects).
"""

from __future__ import annotations

from repro.core.hcrac import HCRAC


class PeriodicInvalidator:
    """The paper's IIC/EC two-counter scheme, driven by cycle deltas.

    Instead of literally incrementing a counter every cycle (wasteful in
    a Python simulator), :meth:`advance_to` computes how many IIC wraps
    occurred since the last call and performs that many entry
    invalidations - behaviourally identical to the hardware scheme.  A
    gap of a full sweep or more clears the table at once.
    """

    def __init__(self, hcrac: HCRAC, duration_cycles: int):
        if duration_cycles < hcrac.entries:
            raise ValueError(
                "caching duration shorter than one invalidation sweep; "
                f"need >= {hcrac.entries} cycles, got {duration_cycles}")
        self.hcrac = hcrac
        #: IIC wrap period: C / k cycles per entry.
        self.interval = max(1, duration_cycles // hcrac.entries)
        self.entry_counter = 0          # EC
        self._last_cycle = 0            # IIC is (cycle - last) % interval

    def advance_to(self, cycle: int) -> None:
        """Run the scheme up to ``cycle``."""
        if cycle < self._last_cycle:
            raise ValueError("cycle moved backwards")
        wraps = (cycle - self._last_cycle) // self.interval
        if wraps == 0:
            return
        self._last_cycle += wraps * self.interval
        k = self.hcrac.entries
        if wraps >= k:
            # One or more full sweeps elapsed: everything is stale.
            self.hcrac.clear()
            wraps %= k
        for _ in range(wraps):
            self.hcrac.invalidate_entry(self.entry_counter)
            self.entry_counter += 1
            if self.entry_counter == k:
                self.entry_counter = 0

    def next_wrap_cycle(self) -> int:
        """Cycle of the next IIC wrap (the next single-entry sweep step).

        ChargeCache's hooks call :meth:`advance_to` only once a lookup
        or insert reaches this cycle.  That is exact because
        :meth:`advance_to` is batch-exact: however many wraps one call
        covers, the table ends as the hardware scheme, stepping at
        every wrap, would leave it.
        """
        return self._last_cycle + self.interval
