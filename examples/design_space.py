#!/usr/bin/env python3
"""ChargeCache design-space exploration: capacity and caching duration.

Reproduces the trade-offs behind the paper's Figures 9-11 on a small
workload set, driving every variant through the mechanism-spec
mini-language (:mod:`repro.core.registry`): each sweep point is just a
string like ``"chargecache(entries=256)"`` — no config surgery.

* **Capacity** - more HCRAC entries capture longer row-reuse
  distances, but returns diminish (the paper picks 128 entries).
* **Caching duration** - longer durations keep entries alive longer
  but weaken the tRCD/tRAS reductions physics allows (Table 2); the
  paper picks 1 ms.
* **Composition** - mechanisms compose with ``+``; the registry
  normalizes order, so ``"nuat+chargecache"`` reuses the cached
  ``"chargecache+nuat"`` runs.

Run:  python examples/design_space.py
"""

from repro.circuit.latency_tables import reductions_for_duration_ms
from repro.harness.runner import Scale, run_spec, workload_spec

SCALE = Scale(single_core_instructions=15_000, warmup_cpu_cycles=6_000)
WORKLOADS = ("libquantum", "tpch17", "soplex")


def average(values):
    values = list(values)
    return sum(values) / len(values)


def capacity_sweep() -> None:
    print("capacity sweep (1 ms duration)")
    print(f"{'entries':>10s} {'hit rate':>10s} {'speedup':>10s}")
    for entries in (32, 64, 128, 256, 512, 1024):
        spec = f"chargecache(entries={entries})"
        hits, gains = [], []
        for name in WORKLOADS:
            base = run_spec(workload_spec(name, "none", SCALE))
            cc = run_spec(workload_spec(name, spec, SCALE))
            hits.append(cc.mechanism_hit_rate)
            gains.append(cc.total_ipc / base.total_ipc - 1)
        print(f"{entries:>10d} {average(hits):>10.0%} "
              f"{average(gains):>+10.1%}")
    unlimited = [run_spec(workload_spec(n, "chargecache(unbounded=true)",
                                        SCALE)).mechanism_hit_rate
                 for n in WORKLOADS]
    print(f"{'unlimited':>10s} {average(unlimited):>10.0%} {'-':>10s}")


def duration_sweep() -> None:
    print("\ncaching-duration sweep (128 entries)")
    print(f"{'duration':>10s} {'tRCD/tRAS -':>12s} {'hit rate':>10s} "
          f"{'speedup':>10s}")
    for duration in (1.0, 4.0, 8.0, 16.0):
        spec = f"chargecache(duration_ms={duration})"
        red = reductions_for_duration_ms(duration)
        hits, gains = [], []
        for name in WORKLOADS:
            base = run_spec(workload_spec(name, "none", SCALE))
            cc = run_spec(workload_spec(name, spec, SCALE))
            hits.append(cc.mechanism_hit_rate)
            gains.append(cc.total_ipc / base.total_ipc - 1)
        print(f"{f'{duration:g} ms':>10s} {f'{red[0]}/{red[1]}':>12s} "
              f"{average(hits):>10.0%} {average(gains):>+10.1%}")


def composition() -> None:
    print("\ncomposition (+ is commutative, first spelling fills the "
          "cache)")
    for spec in ("chargecache+nuat", "nuat+chargecache(entries=128)"):
        gains = []
        for name in WORKLOADS:
            base = run_spec(workload_spec(name, "none", SCALE))
            combo = run_spec(workload_spec(name, spec, SCALE))
            gains.append(combo.total_ipc / base.total_ipc - 1)
        print(f"{spec:>35s} {average(gains):>+10.1%}")


def main() -> None:
    capacity_sweep()
    duration_sweep()
    composition()
    print("\npaper: 128 entries and 1 ms are the sweet spots "
          "(Figures 9-11).")


if __name__ == "__main__":
    main()
