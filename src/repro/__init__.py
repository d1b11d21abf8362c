"""repro - a full reproduction of *ChargeCache: Reducing DRAM Latency
by Exploiting Row Access Locality* (Hassan et al., HPCA 2016).

Public API quick tour::

    from repro import (
        single_core_config, System, Organization, make_trace,
    )

    cfg = single_core_config(mechanism="chargecache")
    org = Organization.from_config(cfg.dram)
    system = System(cfg, [make_trace("mcf", org)])
    result = system.run()
    print(result.total_ipc, result.mechanism_hit_rate)

Subpackages:

* :mod:`repro.core` - ChargeCache, NUAT, LL-DRAM, AL-DRAM mechanisms
  and the mechanism registry/spec mini-language
  (``cfg = single_core_config(mechanism="chargecache(entries=256)+nuat")``).
* :mod:`repro.dram` - DDR3 device timing model.
* :mod:`repro.controller` - FR-FCFS memory controller.
* :mod:`repro.cpu` - trace-driven cores, LLC, system runner.
* :mod:`repro.workloads` - synthetic SPEC/TPC/STREAM-like traces.
* :mod:`repro.circuit` - sense-amplifier transient model (Fig. 6, Tab. 2).
* :mod:`repro.energy` - DRAM energy and controller area/power models.
* :mod:`repro.stats` - metrics and the RLTL profiler.
* :mod:`repro.harness` - per-figure/table experiment drivers.
"""

from repro.config import (
    SimulationConfig,
    ProcessorConfig,
    CacheConfig,
    DRAMConfig,
    ControllerConfig,
    ChargeCacheConfig,
    NUATConfig,
    single_core_config,
    eight_core_config,
)
from repro.core.registry import (
    canonical_spec,
    mechanism_names,
    parse_mechanism_spec,
    register_mechanism,
)
from repro.cpu.system import System, RunResult
from repro.dram.organization import Organization
from repro.dram.standards import StandardProfile, profile, profile_for_config
from repro.dram.timing import DDR3_1600, TimingParameters
from repro.energy.drampower import PowerParameters, energy_for_run
from repro.energy.mcpat import hcrac_overhead, overhead_for_config
from repro.workloads.spec_like import make_trace, WORKLOAD_NAMES
from repro.workloads.mixes import make_mix_traces, MIX_NAMES

__version__ = "1.0.0"

__all__ = [
    "SimulationConfig",
    "ProcessorConfig",
    "CacheConfig",
    "DRAMConfig",
    "ControllerConfig",
    "ChargeCacheConfig",
    "NUATConfig",
    "single_core_config",
    "eight_core_config",
    "canonical_spec",
    "mechanism_names",
    "parse_mechanism_spec",
    "register_mechanism",
    "System",
    "RunResult",
    "Organization",
    "DDR3_1600",
    "TimingParameters",
    "StandardProfile",
    "profile",
    "profile_for_config",
    "PowerParameters",
    "energy_for_run",
    "hcrac_overhead",
    "overhead_for_config",
    "make_trace",
    "WORKLOAD_NAMES",
    "make_mix_traces",
    "MIX_NAMES",
    "__version__",
]
