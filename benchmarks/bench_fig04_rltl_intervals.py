"""Figure 4: RLTL as a function of the time interval, under open-row
and closed-row policies.

Paper: single-core 0.125ms-RLTL averages 66%, eight-core 77%; the
row-buffer policy has little effect; RLTL saturates quickly with the
interval.  Expected shape: monotone in the interval, eight-core >=
single-core at the shortest interval, open ~ closed.
"""

from conftest import record, run_once

from repro.harness.experiments import run

INTERVALS = (0.125, 0.25, 0.5, 1.0, 32.0)


def _avg(result):
    return result["rows"][-1]


def test_fig4a_single_core(benchmark, scale):
    result = run_once(benchmark, run, "fig4a", None, scale,
                      intervals_ms=INTERVALS)
    avg = _avg(result)
    record(benchmark, result,
           open_0125=avg["open_0.125ms"], closed_0125=avg["closed_0.125ms"],
           paper_0125=0.66)
    for policy in ("open", "closed"):
        series = [avg[f"{policy}_{i}ms"] for i in INTERVALS]
        assert series == sorted(series), "RLTL must grow with interval"
        assert series[0] > 0.2, "short-interval RLTL should be substantial"
    # Policy makes little difference (paper Section 3).
    assert abs(avg["open_0.125ms"] - avg["closed_0.125ms"]) < 0.25


def test_fig4b_eight_core(benchmark, scale):
    # All 20 mixes under both policies is the most expensive RLTL
    # experiment; use half the mixes to bound wall-clock time.
    from repro.workloads.mixes import MIX_NAMES
    mixes = list(MIX_NAMES[:10])
    result = run_once(benchmark, run, "fig4b", mixes, scale,
                      intervals_ms=INTERVALS)
    avg = _avg(result)
    record(benchmark, result, open_0125=avg["open_0.125ms"],
           closed_0125=avg["closed_0.125ms"], paper_0125=0.77,
           mixes=len(mixes))
    series = [avg[f"closed_{i}ms"] for i in INTERVALS]
    assert series == sorted(series)
    assert series[0] > 0.3
