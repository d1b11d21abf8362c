"""Smoke tests for every experiment driver at a tiny scale.

These verify shapes and basic qualitative facts; the full-scale
assertions live in the benchmarks.
"""

import pytest

from repro.harness import experiments
from repro.harness.runner import Scale, clear_caches

TINY = Scale(single_core_instructions=3000, multi_core_instructions=1500,
             warmup_cpu_cycles=1500, max_mem_cycles=400_000)

WORKLOADS = ["libquantum", "mcf"]
MIXES = ["w1"]


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_caches()
    yield


class TestFig3:
    def test_single(self):
        result = experiments.run("fig3a", WORKLOADS, TINY)
        assert result["id"] == "fig3a"
        rows = result["rows"]
        assert rows[-1]["workload"] == "AVG"
        avg = rows[-1]
        assert 0 <= avg["rltl_8ms"] <= 1
        assert 0 <= avg["refresh_8ms"] <= 1

    def test_rltl_exceeds_refresh_fraction(self):
        """The paper's headline motivation (Fig. 3)."""
        result = experiments.run("fig3a", WORKLOADS, TINY)
        avg = result["rows"][-1]
        assert avg["rltl_8ms"] > avg["refresh_8ms"]


class TestFig4:
    def test_interval_monotonicity(self):
        result = experiments.run("fig4a", WORKLOADS, TINY,
                                 intervals_ms=(0.125, 1.0, 32.0))
        avg = result["rows"][-1]
        for policy in ("open", "closed"):
            series = [avg[f"{policy}_{i}ms"] for i in (0.125, 1.0, 32.0)]
            assert series == sorted(series)  # RLTL grows with interval


class TestFig6AndTable2:
    def test_fig6_shape(self):
        result = experiments.run("fig6")
        assert result["full"]["ready_ns"] < result["partial"]["ready_ns"]
        assert result["trcd_reduction_ns"] > 0
        assert result["tras_reduction_ns"] > result["trcd_reduction_ns"]

    def test_table2_rows(self):
        result = experiments.run("table2")
        assert result["rows"][0]["duration_ms"] == "baseline"
        assert len(result["rows"]) == 5


class TestFig7:
    def test_single_core(self):
        result = experiments.run("fig7a", WORKLOADS, TINY)
        avg = result["rows"][-1]
        assert avg["workload"] == "AVG"
        assert avg["lldram"] >= avg["chargecache"] - 0.01
        assert avg["chargecache"] >= -0.005  # never degrades

    def test_rows_sorted_by_rmpkc(self):
        result = experiments.run("fig7a", WORKLOADS, TINY)
        rmpkcs = [r["rmpkc"] for r in result["rows"][:-1]]
        assert rmpkcs == sorted(rmpkcs)

    def test_eight_core(self):
        result = experiments.run("fig7b", MIXES, TINY)
        avg = result["rows"][-1]
        assert avg["chargecache"] >= -0.01


class TestFig8:
    def test_energy_reduction_bounds(self):
        result = experiments.run("fig8", WORKLOADS, TINY,
                                 modes=("single",))
        row = result["rows"][0]
        assert -0.05 <= row["average_reduction"] <= 1.0
        assert row["max_reduction"] >= row["average_reduction"]


class TestFig9And10:
    def test_hit_rate_monotone_in_capacity(self):
        result = experiments.run("fig9", WORKLOADS, TINY,
                                 modes=("single",), capacities=(64, 256))
        by_cap = {r["entries"]: r["hit_rate"] for r in result["rows"]}
        assert by_cap[256] >= by_cap[64] - 0.02
        assert by_cap["unlimited"] >= by_cap[256] - 0.02

    def test_fig10_shape(self):
        result = experiments.run("fig10", WORKLOADS, TINY,
                                 modes=("single",), capacities=(64, 256))
        assert len(result["rows"]) == 2


class TestFig11:
    def test_duration_sweep(self):
        result = experiments.run("fig11", WORKLOADS, TINY,
                                 modes=("single",),
                                 durations_ms=(1.0, 16.0))
        by_dur = {r["duration_ms"]: r for r in result["rows"]}
        # Longer duration -> weaker reductions -> no better speedup.
        assert by_dur[1.0]["reductions"] >= by_dur[16.0]["reductions"]


class TestWorkloadFilter:
    """``--workloads`` goes to the modes that know each name."""

    def test_each_mode_keeps_its_names_in_order(self):
        names = ["w2", "mcf", "w1", "hmmer"]
        modes = ("single", "eight")
        assert experiments._names_for("single", names, modes) == \
            ["mcf", "hmmer"]
        assert experiments._names_for("eight", names, modes) == \
            ["w2", "w1"]

    def test_name_no_mode_knows_raises(self):
        with pytest.raises(ValueError, match="'bogus'"):
            experiments._names_for("single", ["mcf", "bogus"],
                                   ("single", "eight"))
        with pytest.raises(ValueError, match="'hmmer'"):
            experiments.run("fig7b", ["hmmer"], TINY)

    def test_fig9_application_only(self):
        result = experiments.run("fig9", ["hmmer"], TINY, capacities=(64,))
        assert [(r["mode"], r["entries"]) for r in result["rows"]] == [
            ("single", 64), ("single", "unlimited"),
            ("eight", 64), ("eight", "unlimited")]

    def test_fig10_application_only(self):
        result = experiments.run("fig10", ["hmmer"], TINY,
                                 capacities=(64,))
        assert [r["mode"] for r in result["rows"]] == ["single", "eight"]

    def test_fig11_application_only(self):
        result = experiments.run("fig11", ["hmmer"], TINY,
                                 durations_ms=(1.0,))
        assert [r["mode"] for r in result["rows"]] == ["single", "eight"]


class TestEnergy:
    """Per-standard energy experiment (fig8 x Section 7.2)."""

    SMALL = ("c1-r1", "ddr4-2400-c1")

    @pytest.fixture(autouse=True)
    def _small_family(self, monkeypatch):
        from repro.harness import scenarios
        monkeypatch.setattr(scenarios, "STANDARD_SCENARIOS", self.SMALL)

    def test_per_standard_rows(self):
        result = experiments.run("energy", WORKLOADS, TINY)
        assert result["id"] == "energy"
        by_scen = {r["scenario"]: r for r in result["rows"]}
        assert set(by_scen) == set(self.SMALL)
        ddr3 = by_scen["c1-r1"]
        ddr4 = by_scen["ddr4-2400-c1"]
        assert ddr3["standard"] == "DDR3-1600"
        assert ddr4["standard"] == "DDR4-2400"
        # Each row carries its own standard's electrical identity.
        assert ddr3["vdd"] == 1.5 and ddr4["vdd"] == 1.2
        assert ddr4["tck_ns"] == pytest.approx(1000.0 / 1200.0)
        for row in result["rows"]:
            assert row["n"] == len(WORKLOADS)
            assert row["baseline_uj"] > 0
            assert row["max_reduction"] >= row["average_reduction"]
            assert -0.2 <= row["average_reduction"] <= 1.0

    def test_breakdown_components_non_negative_across_matrix(self):
        """Property check on real runs: no standard's preset yields a
        negative energy component anywhere in the sampled matrix."""
        from dataclasses import asdict

        from repro.energy.drampower import energy_for_run
        from repro.harness.runner import run_spec, scenario_spec
        experiments.run("energy", WORKLOADS, TINY)  # populate the memo
        for scen in self.SMALL:
            for mech in ("none", "chargecache"):
                for name in WORKLOADS:
                    run = run_spec(scenario_spec(
                        scen, name, mech, TINY, idle_finished=True))
                    breakdown = energy_for_run(run)
                    for key, value in asdict(breakdown).items():
                        assert value >= 0, (scen, mech, name, key)


class TestOverheadAndConfig:
    def test_sec63(self):
        result = experiments.run("sec63", scale=TINY, mix="w1")
        assert result["storage_bytes"] == 5376
        assert result["area_mm2"] == pytest.approx(0.022, rel=0.02)
        assert 0.05 < result["average_power_mw"] < 1.0

    def test_sec63_reports_run_config_overhead(self):
        """The run-config overhead rides alongside the paper-config
        numbers; on the default eight-core mix platform the two design
        points coincide."""
        result = experiments.run("sec63", scale=TINY, mix="w1")
        assert result["config_storage_bytes"] == result["storage_bytes"]
        assert result["config_area_mm2"] == \
            pytest.approx(result["area_mm2"])
        assert result["config_average_power_mw"] == \
            pytest.approx(result["average_power_mw"])

    def test_table1_echo(self):
        result = experiments.run("table1")
        assert result["dram"]["trcd_cycles"] == 11
        assert result["chargecache"]["entries"] == 128
        assert result["processor"]["cores"] == [1, 8]
