"""The paper's primary contribution: ChargeCache and the latency
mechanisms it is evaluated against.

* :class:`~repro.core.chargecache.ChargeCache` - the proposed mechanism
  (HCRAC + IIC/EC invalidation + reduced ACT timings on a hit).
* :class:`~repro.core.nuat.NUAT` - the closest prior work (Shin et al.,
  HPCA 2014): reduced timings for recently *refreshed* rows.
* :class:`~repro.core.lldram.LowLatencyDRAM` - the idealised upper
  bound (every activation uses reduced timings).
"""

from repro.core.registry import (
    MechanismContext,
    MechanismSpec,
    mechanism_names,
    parse_mechanism_spec,
    register_mechanism,
)
from repro.core.registry import build as build_mechanism_spec
from repro.core.timing_policy import (
    LatencyMechanism,
    DefaultTiming,
    CombinedMechanism,
)
from repro.core.hcrac import HCRAC, UnboundedHCRAC
from repro.core.invalidation import PeriodicInvalidator
from repro.core.aldram import ALDRAM, aldram_timings_at
from repro.core.chargecache import ChargeCache
from repro.core.nuat import NUAT
from repro.core.lldram import LowLatencyDRAM

__all__ = [
    "MechanismContext",
    "MechanismSpec",
    "build_mechanism_spec",
    "mechanism_names",
    "parse_mechanism_spec",
    "register_mechanism",
    "LatencyMechanism",
    "DefaultTiming",
    "CombinedMechanism",
    "HCRAC",
    "UnboundedHCRAC",
    "PeriodicInvalidator",
    "ChargeCache",
    "NUAT",
    "LowLatencyDRAM",
    "ALDRAM",
    "aldram_timings_at",
]
