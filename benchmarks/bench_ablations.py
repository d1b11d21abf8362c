"""Ablations of design choices the paper discusses but does not sweep.

* **FR-FCFS vs FCFS** (Table 1 picks FR-FCFS): row-hit-first
  scheduling should beat strict FCFS.
* **HCRAC associativity** (Section 6.4: "increasing the associativity
  from two to full improved the hit rate by only 2%"): going from
  2-way to 8-way should barely move the hit rate.
* **Per-core vs shared HCRAC** (paper footnote 2 leaves sharing to
  future work): a shared table of equal total capacity should be at
  least as good for multiprogrammed mixes, since insertions from one
  core can serve another's activations.
"""

from dataclasses import replace

from conftest import run_once

from repro.config import ChargeCacheConfig
from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.harness.runner import (build_config, mix_spec, run_spec,
                                  workload_spec)
from repro.workloads.mixes import make_mix_traces, mix_composition


def _run_with_cc(scale, mix, **cc_overrides):
    cfg = build_config("eight", "chargecache", scale)
    cfg = replace(cfg, chargecache=replace(cfg.chargecache,
                                           **cc_overrides))
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    system = System(cfg, make_mix_traces(mix_composition(mix), org, seed=1))
    return system.run(max_mem_cycles=scale.max_mem_cycles)


def test_ablation_frfcfs_vs_fcfs(benchmark, scale):
    def run():
        frfcfs = run_spec(workload_spec("libquantum", "none", scale))
        cfg = build_config("single", "none", scale)
        cfg = replace(cfg, controller=replace(cfg.controller,
                                              scheduler="fcfs"))
        org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
        from repro.workloads.spec_like import make_trace
        system = System(cfg, [make_trace("libquantum", org, seed=1)])
        fcfs = system.run(max_mem_cycles=scale.max_mem_cycles)
        return frfcfs.total_ipc, fcfs.total_ipc

    frfcfs_ipc, fcfs_ipc = run_once(benchmark, run)
    benchmark.extra_info["frfcfs_ipc"] = frfcfs_ipc
    benchmark.extra_info["fcfs_ipc"] = fcfs_ipc
    print(f"\nablation scheduler: FR-FCFS {frfcfs_ipc:.3f} IPC vs "
          f"FCFS {fcfs_ipc:.3f} IPC")
    assert frfcfs_ipc >= fcfs_ipc


def test_ablation_associativity(benchmark, scale):
    def run():
        rates = {}
        for assoc in (2, 8):
            result = _run_with_cc(scale, "w2", associativity=assoc)
            rates[assoc] = result.mechanism_hit_rate
        return rates

    rates = run_once(benchmark, run)
    benchmark.extra_info["hit_rate_2way"] = rates[2]
    benchmark.extra_info["hit_rate_8way"] = rates[8]
    print(f"\nablation associativity: 2-way {rates[2]:.1%} vs "
          f"8-way {rates[8]:.1%} hit rate")
    # Paper Section 6.4: associativity barely matters (~2%).
    assert abs(rates[8] - rates[2]) < 0.08


def test_ablation_shared_vs_per_core(benchmark, scale):
    def run():
        per_core = run_spec(mix_spec("w3", "chargecache", scale))
        shared = _run_with_cc(scale, "w3", sharing="shared",
                              entries=ChargeCacheConfig().entries * 8)
        return per_core.mechanism_hit_rate, shared.mechanism_hit_rate

    per_core_hits, shared_hits = run_once(benchmark, run)
    benchmark.extra_info["per_core_hit_rate"] = per_core_hits
    benchmark.extra_info["shared_hit_rate"] = shared_hits
    print(f"\nablation sharing: per-core {per_core_hits:.1%} vs "
          f"shared {shared_hits:.1%} hit rate")
    # Equal-capacity shared table sees cross-core reuse too.
    assert shared_hits >= per_core_hits - 0.03
