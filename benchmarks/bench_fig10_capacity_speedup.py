"""Figure 10: speedup vs ChargeCache capacity.

Paper: eight-core speedup grows from ~8.8% at 128 entries to ~10.6% at
1024 entries, with diminishing returns.  Expected shape here: speedup
non-decreasing in capacity (within noise), with 128 entries already
capturing most of the benefit.
"""

from conftest import record, run_once

from repro.harness.experiments import run as run_figure
from repro.workloads.mixes import MIX_NAMES

CAPACITIES = (64, 128, 512, 1024)
EIGHT_MIXES = list(MIX_NAMES[:8])


def run(scale):
    single = run_figure("fig10", None, scale, modes=("single",),
                        capacities=CAPACITIES)
    eight = run_figure("fig10", EIGHT_MIXES, scale, modes=("eight",),
                       capacities=CAPACITIES)
    return {"id": "fig10", "capacities": list(CAPACITIES),
            "rows": single["rows"] + eight["rows"]}


def test_fig10_speedup_vs_capacity(benchmark, scale):
    result = run_once(benchmark, run, scale)
    by_mode = {}
    for row in result["rows"]:
        by_mode.setdefault(row["mode"], {})[row["entries"]] = \
            row["speedup"]
    record(benchmark, result,
           eight_128=by_mode["eight"][128],
           eight_1024=by_mode["eight"][1024],
           paper_eight_128=0.088, paper_eight_1024=0.106)

    for mode in ("single", "eight"):
        series = [by_mode[mode][c] for c in CAPACITIES]
        # Bigger tables never hurt beyond weighted-speedup noise
        # (scaled eight-core runs carry ~+/-1% run-to-run variation).
        assert all(b >= a - 0.02 for a, b in zip(series, series[1:]))
        assert all(s > 0 for s in series)
    # 128 entries already capture most of the 1024-entry benefit
    # (the paper's sweet-spot argument).
    eight = by_mode["eight"]
    if eight[1024] > 0.01:
        assert eight[128] >= 0.5 * eight[1024]
