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
  and the mechanism table/spec mini-language
  (``cfg = single_core_config(mechanism="chargecache(entries=256)+nuat")``).
* :mod:`repro.dram` - DDR3 device timing model.
* :mod:`repro.controller` - FR-FCFS memory controller.
* :mod:`repro.cpu` - trace-driven cores, LLC, system runner.
* :mod:`repro.workloads` - synthetic SPEC/TPC/STREAM-like traces.
* :mod:`repro.circuit` - sense-amplifier transient model (Fig. 6, Tab. 2).
* :mod:`repro.energy` - DRAM energy and controller area/power models.
* :mod:`repro.stats` - metrics and the RLTL profiler.
* :mod:`repro.harness` - per-figure/table experiment drivers.

Each subpackage exports nothing: import a name from the module that
defines it.  The names of the quick tour above, and the rest of
:data:`__all__`, resolve on first use (PEP 562), so ``import repro``
loads no simulator module a run does not use.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "SimulationConfig": "repro.config",
    "ProcessorConfig": "repro.config",
    "CacheConfig": "repro.config",
    "DRAMConfig": "repro.config",
    "ControllerConfig": "repro.config",
    "ChargeCacheConfig": "repro.config",
    "NUATConfig": "repro.config",
    "single_core_config": "repro.config",
    "eight_core_config": "repro.config",
    "mechanism_names": "repro.core.registry",
    "parse_mechanism_spec": "repro.core.registry",
    "System": "repro.cpu.system",
    "RunResult": "repro.cpu.result",
    "Organization": "repro.dram.organization",
    "DDR3_1600": "repro.dram.timing",
    "TimingParameters": "repro.dram.timing",
    "PowerParameters": "repro.energy.drampower",
    "energy_for_run": "repro.energy.drampower",
    "hcrac_overhead": "repro.energy.mcpat",
    "overhead_for_config": "repro.energy.mcpat",
    "make_trace": "repro.workloads.spec_like",
    "WORKLOAD_NAMES": "repro.workloads.spec_like",
    "make_mix_traces": "repro.workloads.mixes",
    "MIX_NAMES": "repro.workloads.mixes",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
