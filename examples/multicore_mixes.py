#!/usr/bin/env python3
"""Multiprogrammed 8-core study (the paper's headline scenario).

Eight cores sharing a 4 MB LLC and two DDR3-1600 channels contend for
banks; the resulting row conflicts create the row-level temporal
locality ChargeCache exploits.  This example runs a few of the paper's
20 random mixes and reports weighted speedup for NUAT, ChargeCache and
the LL-DRAM upper bound.

Run:  python examples/multicore_mixes.py [w1 w2 ...]
"""

import sys

from repro.harness.runner import (
    Scale,
    alone_specs_for_mix,
    mix_spec,
    run_spec,
)
from repro.stats.metrics import weighted_speedup
from repro.workloads.mixes import MIX_NAMES, mix_composition

SCALE = Scale(multi_core_instructions=8_000, warmup_cpu_cycles=10_000)
MECHANISMS = ("nuat", "chargecache", "lldram")


def main() -> None:
    mixes = sys.argv[1:] or list(MIX_NAMES[:4])
    header = f"{'mix':5s} {'apps':58s} " + \
        " ".join(f"{m:>12s}" for m in MECHANISMS)
    print(header)
    print("-" * len(header))

    averages = {m: [] for m in MECHANISMS}
    for mix in mixes:
        apps = ",".join(a[:6] for a in mix_composition(mix))
        alone = [run_spec(spec).total_ipc
                 for spec in alone_specs_for_mix(mix, SCALE)]
        base = run_spec(mix_spec(mix, "none", SCALE))
        base_ws = weighted_speedup(base.ipcs, alone)
        cells = []
        for mech in MECHANISMS:
            run = run_spec(mix_spec(mix, mech, SCALE))
            ws = weighted_speedup(run.ipcs, alone)
            gain = ws / base_ws - 1.0
            averages[mech].append(gain)
            cells.append(f"{gain:+11.1%}")
        print(f"{mix:5s} {apps:58s} " + " ".join(cells))

    print("-" * len(header))
    avg_cells = " ".join(
        f"{sum(v) / len(v):+11.1%}" for v in averages.values())
    print(f"{'AVG':5s} {'':58s} " + avg_cells)
    print("\npaper (all 20 mixes, 1B instructions): "
          "NUAT +2.5%, ChargeCache +8.6%, LL-DRAM ~ +13.4%")


if __name__ == "__main__":
    main()
