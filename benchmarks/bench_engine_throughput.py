"""Engine throughput: dense vs event engines, and the batched
multi-variant evaluator vs N serial runs.

Three measurements:

* idle-heavy: the event engine reaches >= 2x the dense engine's
  simulated-cycles/second (its win is skipping provably idle cycles);
* memory-bound: no worse than a 10% regression (a command issues
  nearly every cycle, so there is little to skip);
* batch: a fig9-style capacity sweep (baseline + 10 HCRAC capacities +
  unbounded = 12 mechanism variants over one workload) through
  ``System.run_batch`` against the same variants simulated serially.
  Every per-variant result must be bit-identical; the serial/batch
  time ratio is reported, not asserted (every variant runs in full,
  so the batch saves only the trace generation it shares).

All measurements must never buy throughput with accuracy: cycle
counts (engines) and full result payloads (batch) are compared
exactly.

Runs standalone (``python benchmarks/bench_engine_throughput.py
[--repeat N] [--json [PATH]]``; ``--repeat`` selects median-of-N
timing) or under pytest-benchmark like the figure benchmarks.

``--json`` appends the measurements as one row to a ledger (default
``BENCH_engine.json``): a JSON list of rows keyed by ``commit`` (``git
rev-parse --short HEAD``, suffixed ``-dirty`` when ``src/`` has
uncommitted changes) and ``repeat``.  A rerun with the same key
replaces that row; every other row is kept, so the committed ledger is
the trajectory of the engines across commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import time
from pathlib import Path
from typing import Optional

from repro.config import (
    CacheConfig,
    ControllerConfig,
    DRAMConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, zipf_trace

#: (mean bubbles per access, footprint bytes, instruction limit).
WORKLOADS = {
    # Long non-memory stretches, small mostly-cached footprint: the
    # next interesting event is routinely tens of bus cycles away.
    "idle-heavy": (2000.0, 1 << 18, 2_000_000),
    # Few bubbles, LLC-defeating footprint: the channel stays busy and
    # the engines visit nearly the same cycles.
    "memory-bound": (4.0, 1 << 21, 120_000),
}

#: HCRAC capacities for the batched fig9-style sweep (plus the "none"
#: baseline and the unbounded variant: 12 mechanism variants total).
BATCH_CAPACITIES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Instruction budget for each batch-sweep variant.
BATCH_INSTRUCTIONS = 30_000


def _build(engine: str, bubbles: float, footprint: int,
           limit: int) -> System:
    cfg = SimulationConfig(
        processor=ProcessorConfig(num_cores=1),
        cache=CacheConfig(size_bytes=64 * 1024, associativity=4),
        dram=DRAMConfig(channels=1, rows_per_bank=4096),
        controller=ControllerConfig(row_policy="open"),
        instruction_limit=limit,
        warmup_cpu_cycles=1000,
        engine=engine,
    )
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    trace = random_trace(org, footprint, bubbles, seed=1,
                         write_fraction=0.2)
    return System(cfg, [trace])


def measure(workload: str, repeats: int = 3) -> dict:
    """Median-of-N cycles/second for both engines on one workload."""
    bubbles, footprint, limit = WORKLOADS[workload]
    rows = {}
    for engine in ("dense", "event"):
        times, cycles = [], None
        for _ in range(repeats):
            system = _build(engine, bubbles, footprint, limit)
            t0 = time.perf_counter()
            result = system.run(max_mem_cycles=50_000_000)
            times.append(time.perf_counter() - t0)
            cycles = result.mem_cycles
        dt = statistics.median(times)
        rows[engine] = {"mem_cycles": cycles, "seconds": dt,
                        "cycles_per_sec": cycles / dt}
    assert rows["dense"]["mem_cycles"] == rows["event"]["mem_cycles"], \
        "engines disagree on simulated time - parity bug"
    rows["speedup"] = (rows["event"]["cycles_per_sec"]
                       / rows["dense"]["cycles_per_sec"])
    return rows


# ----------------------------------------------------------------------
# Batched multi-variant evaluator
# ----------------------------------------------------------------------

def _batch_variant(mechanism: str) -> SimulationConfig:
    cfg = SimulationConfig(
        processor=ProcessorConfig(num_cores=1),
        cache=CacheConfig(size_bytes=64 * 1024, associativity=4),
        dram=DRAMConfig(channels=1, rows_per_bank=4096),
        controller=ControllerConfig(row_policy="open"),
        mechanism=mechanism,
        instruction_limit=BATCH_INSTRUCTIONS,
        warmup_cpu_cycles=2000,
    )
    cfg.validate()
    return cfg


def _batch_configs() -> list:
    return ([_batch_variant("none")]
            + [_batch_variant(f"chargecache(entries={entries})")
               for entries in BATCH_CAPACITIES]
            + [_batch_variant("chargecache(unbounded=true)")])


def _batch_trace(cfg: SimulationConfig):
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    # Hot-row-set zipf: ChargeCache's motivating access pattern, and
    # the shape (one workload, many table variants) of Figures 9-11.
    return zipf_trace(org, 128 * 1024, 6.0, seed=7, alpha=1.8,
                      write_fraction=0.2)


def _result_payload(result) -> dict:
    return dataclasses.asdict(dataclasses.replace(
        result, config=None, rltl=None, reuse=None))


def measure_batch(repeats: int = 3) -> dict:
    """Median-of-N: 12-variant capacity sweep, serial vs run_batch.

    Asserts every batched per-variant result is bit-identical to its
    serial counterpart before reporting any timing.
    """
    configs = _batch_configs()
    serial_times, batch_times = [], []
    serial_results = batch_results = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        serial_results = [
            System(cfg, [_batch_trace(cfg)]).run(max_mem_cycles=30_000_000)
            for cfg in configs]
        serial_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        batch_results = System.run_batch(
            configs, [_batch_trace(configs[0])],
            max_mem_cycles=30_000_000)
        batch_times.append(time.perf_counter() - t0)

    for expect, got in zip(serial_results, batch_results):
        assert _result_payload(got) == _result_payload(expect), \
            "batched variant diverged from its serial counterpart"
        assert got.config == expect.config
    serial_s = statistics.median(serial_times)
    batch_s = statistics.median(batch_times)
    return {
        "variants": len(configs),
        "serial": {"seconds": serial_s},
        "batch": {"seconds": batch_s},
        "speedup": serial_s / batch_s,
    }


def _report(workload: str, rows: dict) -> None:
    print(f"\n{workload}:")
    for engine in ("dense", "event"):
        r = rows[engine]
        print(f"  {engine:5s}: {r['mem_cycles']:>10,} bus cycles in "
              f"{r['seconds']:6.2f} s  ->  "
              f"{r['cycles_per_sec'] / 1e3:8.1f} kcycles/s")
    print(f"  event/dense: {rows['speedup']:.2f}x")


def _report_batch(rows: dict) -> None:
    print(f"\nbatch ({rows['variants']} mechanism variants, "
          f"one workload):")
    print(f"  serial: {rows['serial']['seconds']:6.2f} s")
    print(f"  batch : {rows['batch']['seconds']:6.2f} s")
    print(f"  serial/batch: {rows['speedup']:.2f}x")


def test_idle_heavy_speedup(benchmark=None):
    rows = measure("idle-heavy")
    _report("idle-heavy", rows)
    if benchmark is not None:
        benchmark.extra_info.update(rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert rows["speedup"] >= 2.0, (
        f"event engine only {rows['speedup']:.2f}x on idle-heavy work")


def test_memory_bound_no_regression(benchmark=None):
    rows = measure("memory-bound")
    _report("memory-bound", rows)
    if benchmark is not None:
        benchmark.extra_info.update(rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert rows["speedup"] >= 0.9, (
        f"event engine regresses {1 - rows['speedup']:.0%} on "
        f"memory-bound work (budget: 10%)")


def test_batch_speedup(benchmark=None):
    rows = measure_batch()
    _report_batch(rows)
    if benchmark is not None:
        benchmark.extra_info.update(rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def current_commit() -> str:
    """``git rev-parse --short HEAD`` of this checkout, suffixed
    ``-dirty`` when ``src/`` differs from it; ``unknown`` outside git."""
    root = Path(__file__).resolve().parent.parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, check=True,
            capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=root,
            capture_output=True).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{head}-dirty" if dirty else head


def append_row(path: str, row: dict) -> None:
    """Add ``row`` to the ledger at ``path``, replacing the row with
    the same ``(commit, repeat)`` key if there is one."""
    try:
        with open(path, encoding="ascii") as fh:
            rows = json.load(fh)
    except FileNotFoundError:
        rows = []
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of ledger rows")
    key = (row["commit"], row["repeat"])
    rows = [r for r in rows if (r["commit"], r["repeat"]) != key]
    rows.append(row)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Engine and batch-evaluator throughput benchmark.")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="median-of-N timing (default 3)")
    parser.add_argument("--json", nargs="?", const="BENCH_engine.json",
                        default=None, metavar="PATH",
                        help="append the measurements as one row to a "
                             "JSON ledger (default path: "
                             "BENCH_engine.json)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    results = {"commit": current_commit(), "repeat": args.repeat}
    for workload in WORKLOADS:
        rows = measure(workload, repeats=args.repeat)
        _report(workload, rows)
        results[workload] = rows
    rows = measure_batch(repeats=args.repeat)
    _report_batch(rows)
    results["batch"] = rows
    if args.json:
        append_row(args.json, results)
        print(f"\nrow {results['commit']} (repeat {args.repeat}) "
              f"written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
