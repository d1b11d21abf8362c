"""Figure 7: speedup of NUAT, ChargeCache, ChargeCache+NUAT and
LL-DRAM over the DDR3 baseline.

Paper: single-core averages - NUAT small, ChargeCache 2.1%, LL-DRAM
~6%; eight-core averages - NUAT 2.5%, ChargeCache 8.6%, CC+NUAT 9.6%,
LL-DRAM 13.4%.  Expected shape here: the same ordering
(NUAT < CC <= CC+NUAT <= LL-DRAM), eight-core gains well above
single-core, no workload degraded by ChargeCache, and the mcf/omnetpp
gap to LL-DRAM.

Runs under pytest-benchmark (``pytest benchmarks/ --benchmark-only``,
asserting the paper's qualitative shape) or standalone (``python
benchmarks/bench_fig07_speedup.py [--json [PATH]]``, report-only)
which writes the measured average speedups to ``BENCH_fig07.json``
for the CI artifact.
"""

from repro.harness.experiments import run

if __name__ != "__main__":
    from conftest import record, run_once


def _avg(result):
    return result["rows"][-1]


def test_fig7a_single_core_speedup(benchmark, scale):
    result = run_once(benchmark, run, "fig7a", scale=scale)
    avg = _avg(result)
    record(benchmark, result,
           nuat=avg["nuat"], chargecache=avg["chargecache"],
           cc_nuat=avg["chargecache+nuat"], lldram=avg["lldram"],
           paper_chargecache=0.021)

    # Mechanism ordering (averages).
    assert avg["chargecache"] > avg["nuat"]
    assert avg["lldram"] >= avg["chargecache"] - 0.005
    assert avg["chargecache+nuat"] >= avg["chargecache"] - 0.01

    # ChargeCache never degrades any workload (Section 1).
    per_workload = result["rows"][:-1]
    assert all(r["chargecache"] > -0.01 for r in per_workload)

    # The paper's mcf discussion: large random footprint leaves a wide
    # gap between ChargeCache and LL-DRAM.
    mcf = next(r for r in per_workload if r["workload"] == "mcf")
    assert mcf["lldram"] > 2 * max(mcf["chargecache"], 0.001)


def test_fig7b_eight_core_speedup(benchmark, scale):
    result = run_once(benchmark, run, "fig7b", scale=scale)
    avg = _avg(result)
    record(benchmark, result,
           nuat=avg["nuat"], chargecache=avg["chargecache"],
           cc_nuat=avg["chargecache+nuat"], lldram=avg["lldram"],
           paper_chargecache=0.086, paper_nuat=0.025,
           paper_cc_nuat=0.096)

    assert avg["chargecache"] > avg["nuat"]
    assert avg["lldram"] >= avg["chargecache"] - 0.005
    assert avg["chargecache+nuat"] >= avg["chargecache"] - 0.01
    # Eight-core gains exceed single-core gains (paper Section 6.1):
    # multiprogramming's bank conflicts feed ChargeCache.
    assert avg["chargecache"] > 0.0


def main(argv=None):
    import argparse
    import json
    import time

    from repro.harness import runner
    from repro.harness.report import render_experiment
    from repro.harness.runner import current_scale

    parser = argparse.ArgumentParser(
        description="Regenerate Figure 7 and record the measured "
                    "average speedups (REPRO_SCALE/REPRO_JOBS apply)")
    parser.add_argument("--json", nargs="?", const="BENCH_fig07.json",
                        default=None, metavar="PATH",
                        help="write the measurements as JSON "
                             "(default path: BENCH_fig07.json)")
    args = parser.parse_args(argv)

    # Measure simulation, not cache decode (same policy as the
    # benchmark session fixture).
    runner.configure_disk_cache(None, enabled=False)
    scale = current_scale()
    measurements = {}
    for name, mode, paper_cc in (("fig7a", "single", 0.021),
                                 ("fig7b", "eight", 0.086)):
        start = time.perf_counter()
        result = run(name, scale=scale)
        seconds = time.perf_counter() - start
        print(render_experiment(result))
        avg = _avg(result)
        measurements[result["id"]] = {
            "mode": mode,
            "seconds": round(seconds, 3),
            "nuat": avg["nuat"],
            "chargecache": avg["chargecache"],
            "chargecache+nuat": avg["chargecache+nuat"],
            "lldram": avg["lldram"],
            "paper_chargecache": paper_cc,
            "cache": result.get("cache"),
        }
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(measurements, fh, indent=2)
        print(f"\nmeasurements written to {args.json}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
