#!/usr/bin/env python3
"""Quickstart: run one workload with and without ChargeCache.

This is the smallest end-to-end use of the library:

1. build the paper's single-core system configuration,
2. attach a synthetic SPEC-like workload (libquantum: streaming with
   bank conflicts, i.e. high row-level temporal locality),
3. run the baseline and the ChargeCache configuration,
4. report IPC, speedup, HCRAC hit rate and DRAM energy.

The mechanism is named by a registry spec string
(:mod:`repro.core.registry`): plain names like ``"chargecache"``,
inline parameters like ``"chargecache(entries=256,duration_ms=0.5)"``,
and ``+``-compositions like ``"chargecache+nuat"`` all work anywhere a
mechanism is accepted.

When you sweep *many* mechanism variants over one workload (the shape
of the paper's Figures 9-11), don't loop this script: the harness CLI
batches same-platform variants through one trace replay
(``chargecache-harness fig9 --jobs 1``; on by default, ``--no-batch``
to compare) and ``System.run_batch`` is the library-level entry point.
Results are bit-identical to serial runs — see DESIGN.md section 8.

Harness runs (``repro.harness.runner``) execute under one
``runner.execution`` value: pool width, store directory, engine,
batching and progress.  Scope a change instead of mutating it, e.g. in
a test::

    with runner.executing(jobs=2, cache_dir=str(tmp_path)):
        experiments.run("fig9", ["hmmer"])

The previous execution comes back on exit, even on error.

Run:  python examples/quickstart.py
"""

from repro import Organization, System, make_trace, single_core_config
from repro.energy.drampower import energy_for_run

WORKLOAD = "libquantum"
INSTRUCTIONS = 40_000

#: The paper's configuration, spelled as a parameterized spec (these
#: values are the registered defaults, so this normalizes to plain
#: "chargecache" — same run, same cache entry).
MECHANISM = "chargecache(entries=128,duration_ms=1)"


def run(mechanism: str):
    config = single_core_config(
        mechanism=mechanism,
        instruction_limit=INSTRUCTIONS,
        warmup_cpu_cycles=10_000,
    )
    org = Organization.from_config(config.dram)
    system = System(config, [make_trace(WORKLOAD, org)])
    return system.run(max_mem_cycles=5_000_000)


def main() -> None:
    print(f"workload: {WORKLOAD} ({INSTRUCTIONS} instructions)")

    base = run("none")
    cc = run(MECHANISM)

    speedup = cc.total_ipc / base.total_ipc - 1.0
    # Timing and IDD currents resolve from the run's configured DRAM
    # standard (DDR3-1600 here).
    e_base = energy_for_run(base)
    e_cc = energy_for_run(cc)
    saved = 1.0 - e_cc.total_pj / e_base.total_pj

    print(f"baseline IPC:        {base.total_ipc:.3f}")
    print(f"ChargeCache IPC:     {cc.total_ipc:.3f}  "
          f"(speedup {speedup:+.1%})")
    print(f"activations:         {cc.activations} "
          f"({cc.mechanism_hit_rate:.0%} served with reduced tRCD/tRAS)")
    print(f"row-buffer hit rate: {cc.row_hit_rate:.0%}")
    print(f"DRAM energy:         {e_base.total_pj / 1e6:.2f} uJ -> "
          f"{e_cc.total_pj / 1e6:.2f} uJ ({saved:+.1%})")


if __name__ == "__main__":
    main()
