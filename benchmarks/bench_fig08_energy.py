"""Figure 8: DRAM energy reduction from ChargeCache.

Paper: average/maximum reductions of 1.8%/6.9% (single-core) and
7.9%/14.1% (eight-core).  Expected shape here: positive average
savings, eight-core savings exceed single-core, max >= average, and
the ChargeCache table's own power is accounted against the mechanism.
"""

from conftest import record, run_once

from repro.harness.experiments import run


def test_fig8_dram_energy_reduction(benchmark, scale):
    result = run_once(benchmark, run, "fig8", None, scale)
    rows = {r["mode"]: r for r in result["rows"]}
    record(benchmark, result,
           single_avg=rows["single"]["average_reduction"],
           single_max=rows["single"]["max_reduction"],
           eight_avg=rows["eight"]["average_reduction"],
           eight_max=rows["eight"]["max_reduction"],
           paper=result["paper"])

    for mode in ("single", "eight"):
        assert rows[mode]["max_reduction"] >= \
            rows[mode]["average_reduction"]
        # Energy must never increase on average: ChargeCache only
        # shortens runs and closes rows earlier.
        assert rows[mode]["average_reduction"] > -0.002

    # Eight-core saves more than single-core (higher hit rate, more
    # latency-bound): the paper's 7.9% vs 1.8% relationship.  Small
    # slack absorbs scaled-run noise.
    assert rows["eight"]["average_reduction"] >= \
        rows["single"]["average_reduction"] - 0.01
