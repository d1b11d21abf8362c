"""Energy experiment: fig8's methodology across the standards family.

Section 7.2 argues ChargeCache applies to the whole DDRx/LPDDRx/GDDRx
family; the `energy` experiment re-runs Figure 8's fixed-work energy
comparison on every standards-family platform, billing each with its
own :class:`~repro.dram.standards.StandardProfile` (clock + IDD set)
and charging the HCRAC power of the actual run config.  Expected
shape: positive baseline energy everywhere, max >= average per row,
and no platform where ChargeCache meaningfully *costs* energy.

Like every benchmark here, the sweep honours ``--jobs`` (or
``REPRO_JOBS``) via the shared process pool.
"""

from conftest import record, run_once

from repro.harness.experiments import run


def test_energy_per_standard(benchmark, scale):
    result = run_once(benchmark, run, "energy", None, scale)
    rows = result["rows"]
    assert len(result["standards"]) == 4
    record(benchmark, result,
           standards=result["standards"],
           reductions={r["scenario"]: r["average_reduction"]
                       for r in rows})

    for row in rows:
        assert row["baseline_uj"] > 0
        assert row["max_reduction"] >= row["average_reduction"]
        # Energy must never increase on average: ChargeCache only
        # shortens runs and closes rows earlier (same slack as fig8's
        # scaled-run noise allowance).
        assert row["average_reduction"] > -0.01

    # Every standard appears with both core counts.
    seen = {(r["standard"], r["cores"]) for r in rows}
    assert seen == {(s, c) for s in result["standards"] for c in (1, 8)}
