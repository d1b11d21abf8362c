"""ChargeCache hardware overhead model (paper Section 6.3).

Implements the paper's storage equations exactly:

    Storage_bits = C * MC * Entries * (EntrySize_bits + LRU_bits)    (1)
    EntrySize_bits = log2(R) + log2(B) + log2(Ro) + 1                (2)

where C = cores, MC = memory channels, R/B/Ro = ranks, banks and rows.
For the paper's 8-core, 2-channel, 128-entry configuration this gives
5376 bytes (they report the same), 0.022 mm^2 at 22 nm and 0.149 mW
average power - 0.24% of the area and 0.23% of the power of the 4 MB
LLC.  The area/power constants below are calibrated to those McPAT
results and scale linearly with storage bits (SRAM tag arrays this
small are wire/cell dominated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import BANKS_PER_RANK, RANKS_PER_CHANNEL

#: Calibrated 22 nm constants (see module docstring).
AREA_UM2_PER_BIT_22NM = 0.022e6 / 43008        # ~0.5116 um^2/bit
LEAKAGE_W_PER_BIT_22NM = 0.127e-3 / 43008      # ~2.95 nW/bit
DYNAMIC_PJ_PER_ACCESS_PER_ENTRY_BIT = 0.042    # pJ per access per tag bit

#: 4 MB, 16-way LLC reference points at 22 nm (for the paper's "only
#: 0.24% of the LLC" comparisons).
LLC_AREA_MM2_4MB_22NM = 9.17
LLC_POWER_W_4MB_22NM = 0.065


def _log2_int(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


def hcrac_entry_bits(ranks: int, banks: int, rows: int,
                     valid_bit: bool = True) -> int:
    """Equation (2): bits per HCRAC entry (tag + valid)."""
    bits = _log2_int(ranks, "ranks") + _log2_int(banks, "banks") \
        + _log2_int(rows, "rows")
    return bits + (1 if valid_bit else 0)


def hcrac_storage_bits(cores: int, channels: int, entries: int,
                       associativity: int, ranks: int, banks: int,
                       rows: int) -> int:
    """Equation (1): total ChargeCache storage in bits."""
    if cores < 1 or channels < 1 or entries < 1:
        raise ValueError("cores/channels/entries must be >= 1")
    if associativity < 1:
        raise ValueError("associativity must be >= 1")
    lru_bits = max(0, math.ceil(math.log2(associativity)))
    entry = hcrac_entry_bits(ranks, banks, rows)
    return cores * channels * entries * (entry + lru_bits)


@dataclass(frozen=True)
class HCRACOverhead:
    """Area/power summary for one ChargeCache configuration."""

    storage_bits: int
    area_mm2: float
    leakage_w: float
    dynamic_pj_per_access: float

    @property
    def storage_bytes(self) -> int:
        return self.storage_bits // 8

    def average_power_w(self, accesses_per_second: float) -> float:
        """Leakage plus dynamic power at the given access rate.

        An "access" is one HCRAC operation: a lookup (per ACT), an
        insert (per PRE) or an invalidation sweep step.
        """
        if accesses_per_second < 0:
            raise ValueError("access rate must be non-negative")
        dynamic = accesses_per_second * self.dynamic_pj_per_access * 1e-12
        return self.leakage_w + dynamic

    def area_fraction_of_llc(self) -> float:
        return self.area_mm2 / LLC_AREA_MM2_4MB_22NM

    def power_fraction_of_llc(self, accesses_per_second: float) -> float:
        return self.average_power_w(accesses_per_second) \
            / LLC_POWER_W_4MB_22NM


def hcrac_overhead(cores: int = 8, channels: int = 2, entries: int = 128,
                   associativity: int = 2, ranks: int = 1, banks: int = 8,
                   rows: int = 64 * 1024) -> HCRACOverhead:
    """Overhead for a ChargeCache configuration (defaults: paper's).

    >>> o = hcrac_overhead()
    >>> o.storage_bytes
    5376
    >>> round(o.area_mm2, 3)
    0.022
    """
    bits = hcrac_storage_bits(cores, channels, entries, associativity,
                              ranks, banks, rows)
    entry = hcrac_entry_bits(ranks, banks, rows)
    return HCRACOverhead(
        storage_bits=bits,
        area_mm2=bits * AREA_UM2_PER_BIT_22NM * 1e-6,
        leakage_w=bits * LEAKAGE_W_PER_BIT_22NM,
        dynamic_pj_per_access=entry * DYNAMIC_PJ_PER_ACCESS_PER_ENTRY_BIT,
    )


def overhead_for_config(config) -> HCRACOverhead:
    """Overhead for a :class:`repro.config.SimulationConfig`.

    The HCRAC is the one its mechanism spec simulates
    (:func:`repro.core.chargecache.chargecache_params`; the params
    defaults when the spec has no chargecache term).  Honours the
    ``sharing`` mode: equation (1)'s per-core factor C applies to the
    paper's replicated per-(core, channel) tables;
    ``sharing="shared"`` keeps one table per channel
    (:class:`repro.core.chargecache.ChargeCache` builds exactly one),
    so C = 1.
    """
    from repro.core.chargecache import chargecache_params
    params = chargecache_params(config.mechanism)
    per_core = params.sharing != "shared"
    return hcrac_overhead(
        cores=config.processor.num_cores if per_core else 1,
        channels=config.dram.channels,
        entries=params.entries,
        associativity=params.associativity,
        ranks=RANKS_PER_CHANNEL,
        banks=BANKS_PER_RANK,
        rows=config.dram.rows_per_bank,
    )
