"""Table 2: tRCD and tRAS for different caching durations.

Paper (SPICE): baseline 13.75/35 ns; 1 ms -> 8/22 ns; 4 ms -> 9/24 ns;
16 ms -> 11/28 ns.  Expected here: the model-derived table is monotone
in duration, never exceeds the baseline, and tracks the published ns
values (the model is calibrated on Figure 6's anchors, not on this
table, so agreement is a genuine cross-check).
"""

from conftest import record, run_once

from repro.harness.experiments import run


def test_table2_duration_timings(benchmark):
    result = run_once(benchmark, run, "table2")
    rows = [r for r in result["rows"] if r["duration_ms"] != "baseline"]
    record(benchmark, result,
           model_1ms=rows[0]["model_trcd_ns"],
           paper_1ms=rows[0]["paper_trcd_ns"])

    # Monotone in duration and bounded by the baseline.
    model_trcd = [r["model_trcd_ns"] for r in rows]
    model_tras = [r["model_tras_ns"] for r in rows]
    assert model_trcd == sorted(model_trcd)
    assert model_tras == sorted(model_tras)
    assert all(t <= 13.75 for t in model_trcd)
    assert all(t <= 35.0 for t in model_tras)

    # Cross-check against the published values.
    for row in rows:
        assert abs(row["model_trcd_ns"] - row["paper_trcd_ns"]) < 2.0
        assert abs(row["model_tras_ns"] - row["paper_tras_ns"]) < 4.0

    # The cycle-level reductions used by the simulator: 4/8 at 1 ms
    # (the paper's headline numbers).
    assert rows[0]["reduction_cycles"] == (4, 8)
