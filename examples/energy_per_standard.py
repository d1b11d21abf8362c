#!/usr/bin/env python3
"""Per-standard DRAM energy: the same run billed on its own device.

The energy model is the IDDx decomposition of DRAMPower, and each DRAM
standard carries its own supply voltage, current classes and clock.
This example shows the two halves of the PR-5 plumbing:

1. :func:`repro.energy.drampower.energy_for_run` resolves timing *and*
   power from the run's configured standard — a DDR4 run is billed at
   1.2 V with DDR4 currents on a 0.833 ns clock, not DDR3's 1.5 V /
   1.25 ns;
2. the ``energy`` experiment (``chargecache-harness energy``) sweeps
   baseline vs ChargeCache over every standards-family platform and
   tabulates the per-standard energy reduction.

Run:  python examples/energy_per_standard.py
"""

from repro.dram.standards import PROFILES
from repro.energy.drampower import energy_for_run
from repro.harness.experiments import run
from repro.harness.report import render_experiment
from repro.harness.runner import Scale, run_spec, scenario_spec

#: Small budgets so the example finishes in seconds.
SCALE = Scale(single_core_instructions=4000, multi_core_instructions=2000,
              warmup_cpu_cycles=2000, max_mem_cycles=500_000)

WORKLOAD = "libquantum"


def main() -> None:
    print("one workload, four devices "
          f"({WORKLOAD}, single-core platforms):")
    print(f"{'standard':<12} {'vdd':>4} {'tCK ns':>7} "
          f"{'total uJ':>9} {'background %':>13}")
    for standard in sorted(PROFILES):
        scen = ("c1-r1" if standard == "DDR3-1600"
                else f"{standard.lower()}-c1")
        result = run_spec(scenario_spec(scen, WORKLOAD, "none", SCALE,
                                        idle_finished=True))
        breakdown = energy_for_run(result)  # resolves the standard
        prof = PROFILES[standard]
        bg = breakdown.background_pj / breakdown.total_pj
        print(f"{standard:<12} {prof.power.vdd:>4} "
              f"{prof.timing.tCK_ns:>7.3f} "
              f"{breakdown.total_pj * 1e-6:>9.3f} {bg:>12.0%}")

    print()
    print("full per-standard energy-reduction table "
          "(baseline vs ChargeCache):")
    print(render_experiment(run("energy", [WORKLOAD], SCALE)))


if __name__ == "__main__":
    main()
