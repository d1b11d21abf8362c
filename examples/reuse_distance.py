#!/usr/bin/env python3
"""Row reuse distance: why ChargeCache trails LL-DRAM on mcf/omnetpp.

The paper (Section 6.1) attributes the gap between ChargeCache and the
LL-DRAM upper bound on mcf/omnetpp to *row reuse distance*: many other
rows are activated between two activations of the same row, so the
HCRAC entry is evicted before it can hit.

This example measures the exact LRU stack-distance distribution of each
workload's activation stream, uses it to *predict* the HCRAC hit rate
at several capacities, and compares the prediction with the measured
hit rate of a real ChargeCache run - a capacity-planning workflow for
sizing the HCRAC without sweep simulations.

Run:  python examples/reuse_distance.py
"""

from repro import Organization, System, make_trace
from repro.harness.runner import (Scale, build_config, run_spec,
                                  workload_spec)

SCALE = Scale(single_core_instructions=20_000, warmup_cpu_cycles=8_000)
WORKLOADS = ("tpch17", "libquantum", "mcf", "omnetpp")
CAPACITIES = (32, 128, 512, 2048)


def profile(name: str):
    config = build_config("single", "none", SCALE)
    org = Organization.from_config(config.dram)
    system = System(config, [make_trace(name, org)], enable_reuse=True)
    result = system.run(max_mem_cycles=SCALE.max_mem_cycles)
    return result.reuse


def main() -> None:
    header = (f"{'workload':12s}{'median dist':>12s}"
              + "".join(f"{f'pred@{c}':>10s}" for c in CAPACITIES)
              + f"{'measured@128':>14s}")
    print(header)
    print("-" * len(header))
    for name in WORKLOADS:
        reuse = profile(name)
        median = reuse.median_reuse_distance()
        cells = "".join(f"{reuse.predicted_hit_rate(c):>10.0%}"
                        for c in CAPACITIES)
        measured = run_spec(workload_spec(name, "chargecache", SCALE))
        print(f"{name:12s}{str(median):>12s}{cells}"
              f"{measured.mechanism_hit_rate:>14.0%}")
    print("\nmcf/omnetpp need thousands of entries before their reuse "
          "distances fit - the paper's explanation for their gap to "
          "LL-DRAM.  (Prediction assumes a fully-associative table "
          "with no invalidation, so it upper-bounds the measured "
          "2-way, invalidated HCRAC.)")


if __name__ == "__main__":
    main()
