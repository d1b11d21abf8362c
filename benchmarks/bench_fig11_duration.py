"""Figure 11: speedup and hit rate vs caching duration.

Paper: 1 ms is the empirically best duration - longer durations raise
the hit rate only marginally (+~2% single-core, ~0 eight-core, because
capacity evictions dominate) while the physics-derated timing
reductions shrink (Table 2).  Expected shape here: speedup maximal at
1 ms and non-increasing with duration; hit rate roughly flat.
"""

from conftest import record, run_once

from repro.harness.experiments import run as run_figure
from repro.workloads.mixes import MIX_NAMES

DURATIONS = (1.0, 4.0, 8.0, 16.0)
EIGHT_MIXES = list(MIX_NAMES[:8])


def run(scale):
    single = run_figure("fig11", None, scale, modes=("single",),
                        durations_ms=DURATIONS)
    eight = run_figure("fig11", EIGHT_MIXES, scale, modes=("eight",),
                       durations_ms=DURATIONS)
    return {"id": "fig11", "durations_ms": list(DURATIONS),
            "rows": single["rows"] + eight["rows"]}


def test_fig11_caching_duration(benchmark, scale):
    result = run_once(benchmark, run, scale)
    by_mode = {}
    for row in result["rows"]:
        by_mode.setdefault(row["mode"], {})[row["duration_ms"]] = row
    record(benchmark, result,
           single_1ms=by_mode["single"][1.0]["speedup"],
           eight_1ms=by_mode["eight"][1.0]["speedup"],
           eight_16ms=by_mode["eight"][16.0]["speedup"],
           paper_best_duration_ms=1.0)

    for mode in ("single", "eight"):
        speedups = [by_mode[mode][d]["speedup"] for d in DURATIONS]
        hits = [by_mode[mode][d]["hit_rate"] for d in DURATIONS]
        # 1 ms is the sweet spot: no longer duration beats it.
        assert speedups[0] >= max(speedups) - 0.005
        # Hit rate is roughly flat in duration (capacity dominates).
        assert max(hits) - min(hits) < 0.15
        # Timing reductions weaken monotonically with duration.
        reductions = [by_mode[mode][d]["reductions"] for d in DURATIONS]
        assert reductions == sorted(reductions, reverse=True)
