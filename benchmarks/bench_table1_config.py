"""Table 1: simulated system configuration (validation bench).

Verifies our defaults reproduce the paper's Table 1 exactly and
records the configuration echo alongside the benchmark results.
"""

from conftest import run_once

from repro.harness.experiments import run


def test_table1_configuration(benchmark):
    result = run_once(benchmark, run, "table1")

    proc = result["processor"]
    assert proc["cores"] == [1, 8]
    assert proc["freq_ghz"] == 4.0
    assert proc["issue_width"] == 3
    assert proc["mshrs_per_core"] == 8
    assert proc["window"] == 128

    llc = result["llc"]
    assert llc["size_bytes"] == 4 * 1024 * 1024
    assert llc["associativity"] == 16
    assert llc["line_bytes"] == 64

    ctrl = result["controller"]
    assert ctrl["queue_entries"] == 64
    assert ctrl["scheduler"] == "frfcfs"
    assert ctrl["row_policy"] == ["open", "closed"]

    dram = result["dram"]
    assert dram["bus_mhz"] == 800.0
    assert dram["channels"] == [1, 2]
    assert dram["banks"] == 8
    assert dram["rows"] == 64 * 1024
    assert dram["row_buffer_bytes"] == 8192
    assert (dram["trcd_cycles"], dram["tras_cycles"]) == (11, 28)

    cc = result["chargecache"]
    assert cc["entries"] == 128
    assert cc["associativity"] == 2
    assert cc["duration_ms"] == 1.0
    assert (cc["trcd_reduction"], cc["tras_reduction"]) == (4, 8)

    benchmark.extra_info["experiment"] = "table1"
    benchmark.extra_info["config"] = {k: v for k, v in result.items()
                                      if k != "id"}
