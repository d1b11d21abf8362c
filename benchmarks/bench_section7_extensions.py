"""Section 7 extensions: temperature independence and other standards.

The paper discusses (without evaluating) two properties; both are
implemented and checked here:

* **7.1 Temperature independence**: ChargeCache's speedup holds at any
  temperature, while AL-DRAM-style derating vanishes at the worst case
  (85 C, and 3D-stacked parts run hotter).  Combining the two at low
  temperature beats either alone.
* **7.2 Other standards**: the mechanism runs unchanged on the DDR4
  and LPDDR3 platforms (any standard with explicit ACT/PRE), each
  modelled end to end: its own timing, bus clock and ChargeCache
  reductions re-expressed in its own cycles.

Every run is built the way a user builds one: a platform name and a
mechanism spec (the AL-DRAM temperature is an inline spec parameter).
"""

from conftest import run_once

from repro.core.aldram import aldram_timings_at
from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.dram.standards import PRESETS, preset
from repro.harness.runner import build_config
from repro.workloads.spec_like import make_trace

WORKLOAD = "tpch17"

#: Platform of each Section 7.2 standard.
PLATFORMS = {"DDR4-2400": "ddr4-2400-c1", "LPDDR3-1600": "lpddr3-1600-c1"}


def _run(scale, mechanism, platform="single"):
    cfg = build_config(platform, mechanism, scale)
    org = Organization.from_config(cfg.dram)
    system = System(cfg, [make_trace(WORKLOAD, org, seed=1)])
    return system.run(max_mem_cycles=scale.max_mem_cycles)



def test_sec71_temperature_independence(benchmark, scale):
    def run():
        base = _run(scale, "none").total_ipc
        gains = {}
        for temp in (45.0, 85.0):
            specs = {
                "chargecache": "chargecache",
                "aldram": f"aldram(temperature_c={temp})",
                "chargecache+aldram":
                    f"chargecache+aldram(temperature_c={temp})",
            }
            gains[temp] = {
                name: _run(scale, spec).total_ipc / base - 1
                for name, spec in specs.items()
            }
        return gains

    gains = run_once(benchmark, run)
    for temp, row in gains.items():
        benchmark.extra_info[f"gains_{int(temp)}C"] = row
        print(f"\n{int(temp)}C: " + "  ".join(
            f"{k} {v:+.1%}" for k, v in row.items()))

    hot, cool = gains[85.0], gains[45.0]
    # ChargeCache works at the worst-case temperature...
    assert hot["chargecache"] > 0.005
    # ...where AL-DRAM derating has nothing left to give.
    assert abs(hot["aldram"]) < 0.005
    # ChargeCache is temperature independent (same reductions apply).
    assert abs(cool["chargecache"] - hot["chargecache"]) < 0.02
    # At low temperature the combination beats AL-DRAM alone.
    assert cool["chargecache+aldram"] >= cool["aldram"] - 0.005


def test_sec72_other_standards(benchmark, scale):
    def run():
        rows = {}
        for name, platform in PLATFORMS.items():
            base = _run(scale, "none", platform)
            cc = _run(scale, "chargecache", platform)
            rows[name] = {
                "speedup": cc.total_ipc / base.total_ipc - 1,
                "hit_rate": cc.mechanism_hit_rate,
            }
        return rows

    rows = run_once(benchmark, run)
    for name, row in rows.items():
        benchmark.extra_info[name] = row
        print(f"\n{name}: speedup {row['speedup']:+.1%}, "
              f"hit rate {row['hit_rate']:.0%}")
        # The mechanism transfers: hits happen and nothing degrades.
        assert row["hit_rate"] > 0.1
        assert row["speedup"] > -0.01


def test_sec72_timing_presets_sane(benchmark):
    def run():
        return {name: (t.tRCD, t.tRAS, round(t.tCK_ns, 3))
                for name, t in PRESETS.items()}

    table = run_once(benchmark, run)
    benchmark.extra_info["presets"] = {k: list(v) for k, v in table.items()}
    assert set(table) >= {"DDR3-1600", "DDR4-2400", "LPDDR3-1600"}
    # AL-DRAM derating applies to every preset as well.
    for name in table:
        timing = preset(name)
        derated = aldram_timings_at(55.0, timing)
        assert derated.trcd <= timing.tRCD
