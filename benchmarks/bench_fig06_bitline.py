"""Figure 6: effect of initial cell charge on the bitline voltage.

Paper (SPICE, 55nm DDR3 + PTM): fully-charged cell ready in 10 ns,
64 ms-old cell in 14.5 ns; headroom 4.5 ns (tRCD) and 9.6 ns (tRAS).
Expected here: the calibrated transient model reproduces all four
anchors within sub-ns tolerance.
"""

from conftest import record, run_once

from repro.harness.experiments import run


def test_fig6_bitline_transients(benchmark):
    result = run_once(benchmark, run, "fig6")
    record(benchmark, result,
           ready_full_ns=result["full"]["ready_ns"],
           ready_partial_ns=result["partial"]["ready_ns"],
           trcd_headroom_ns=result["trcd_reduction_ns"],
           tras_headroom_ns=result["tras_reduction_ns"])

    paper = result["paper"]
    assert abs(result["full"]["ready_ns"]
               - paper["ready_full_ns"]) < 0.7
    assert abs(result["partial"]["ready_ns"]
               - paper["ready_partial_ns"]) < 0.7
    assert abs(result["trcd_reduction_ns"]
               - paper["trcd_reduction_ns"]) < 0.8
    assert abs(result["tras_reduction_ns"]
               - paper["tras_reduction_ns"]) < 1.2

    # Curves have the figure's qualitative shape: the partial cell's
    # bitline trails the full cell's everywhere.
    full = dict(result["full"]["curve"])
    partial = dict(result["partial"]["curve"])
    shared = sorted(set(full) & set(partial))
    assert shared
    trailing = sum(1 for t in shared if partial[t] <= full[t] + 1e-6)
    assert trailing / len(shared) > 0.95
