"""Unit tests for the scale-out scenario table.

Scenario names feed run-cache keys, so this suite locks both the
published name set and each name's platform binding: renaming is a
visible (golden-test) change, silently re-binding a name to a
different platform is a bug.
"""

import pytest

from repro.config import SimulationConfig
from repro.cpu.system import System
from repro.dram.standards import preset
from repro.harness import scenarios
from repro.harness.runner import build_config
from repro.harness.scenarios import (
    KIND_PLATFORMS,
    SCALING_SCENARIOS,
    STANDARD_SCENARIOS,
    platform,
    scenario,
    scenario_names,
    scenario_workload_names,
)
from repro.harness.spec import RUN_KINDS, RunSpec, Scale
from repro.workloads.mixes import make_mix_traces

TINY = Scale(single_core_instructions=2000, multi_core_instructions=900,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

#: Golden copy of the scenario table: name -> (cores, channels, ranks,
#: standard, policy).  A failure here means a cache-key-visible change
#: — fine if intentional (new names invalidate nothing), but a changed
#: *binding* for an existing name must instead use a new name.
GOLDEN = {
    "c1-r1": (1, 1, 1, "DDR3-1600", "open"),
    "c1-r2": (1, 1, 2, "DDR3-1600", "open"),
    "c2-r1": (2, 1, 1, "DDR3-1600", "closed"),
    "c2-r2": (2, 1, 2, "DDR3-1600", "closed"),
    "c4-r1": (4, 2, 1, "DDR3-1600", "closed"),
    "c4-r2": (4, 2, 2, "DDR3-1600", "closed"),
    "c8-r1": (8, 2, 1, "DDR3-1600", "closed"),
    "c8-r2": (8, 2, 2, "DDR3-1600", "closed"),
    "c16-r1": (16, 2, 1, "DDR3-1600", "closed"),
    "c16-r2": (16, 2, 2, "DDR3-1600", "closed"),
    "ddr4-2400-c1": (1, 1, 1, "DDR4-2400", "open"),
    "ddr4-2400-c8": (8, 2, 1, "DDR4-2400", "closed"),
    "lpddr3-1600-c1": (1, 1, 1, "LPDDR3-1600", "open"),
    "lpddr3-1600-c8": (8, 2, 1, "LPDDR3-1600", "closed"),
    "gddr5-4000-c1": (1, 1, 1, "GDDR5-4000", "open"),
    "gddr5-4000-c8": (8, 2, 1, "GDDR5-4000", "closed"),
}


class TestRegistry:
    def test_names_are_stable(self):
        assert set(scenario_names()) == set(GOLDEN)

    def test_platform_bindings_are_stable(self):
        for name, (cores, channels, ranks, std, policy) in GOLDEN.items():
            scen = scenario(name)
            assert (scen.num_cores, scen.channels,
                    scen.ranks_per_channel, scen.standard,
                    scen.row_policy) == (cores, channels, ranks, std,
                                         policy), name

    def test_no_two_names_share_a_platform(self):
        """Duplicate platforms under two names would run (and cache)
        the same simulation twice in the shared `all` sweep."""
        platforms = {}
        for scen in map(scenario, scenarios.scenario_names()):
            key = (scen.num_cores, scen.channels, scen.ranks_per_channel,
                   scen.standard, scen.row_policy)
            assert key not in platforms, (
                f"{scen.name} duplicates {platforms[key]}")
            platforms[key] = scen.name

    def test_experiment_families_are_registered(self):
        for name in SCALING_SCENARIOS + STANDARD_SCENARIOS:
            scenario(name)  # must not raise

    def test_scaling_family_covers_the_matrix(self):
        cores = {scenario(n).num_cores for n in SCALING_SCENARIOS}
        ranks = {scenario(n).ranks_per_channel for n in SCALING_SCENARIOS}
        assert cores == {1, 2, 4, 8, 16}
        assert ranks == {1, 2}

    def test_standards_family_covers_every_preset(self):
        from repro.dram.standards import PRESETS
        stds = {scenario(n).standard for n in STANDARD_SCENARIOS}
        assert stds == set(PRESETS)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario("c3-r1")

    def test_run_kinds_resolve_to_paper_platforms(self):
        assert platform("single") is platform("trace") is scenario("c1-r1")
        assert platform("eight") is platform("alone") is scenario("c8-r1")
        assert platform("c4-r2") is scenario("c4-r2")
        assert set(KIND_PLATFORMS) | {"scenario"} == set(RUN_KINDS)
        with pytest.raises(ValueError, match="unknown platform"):
            platform("dual")


class TestConfigConstruction:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_scenario_builds_a_valid_config(self, name):
        cfg = build_config(name, "chargecache", TINY)
        assert isinstance(cfg, SimulationConfig)
        cfg.validate()  # idempotent; build_config validated already
        scen = scenario(name)
        assert cfg.processor.num_cores == scen.num_cores
        assert cfg.dram.channels == scen.channels
        assert cfg.dram.ranks_per_channel == scen.ranks_per_channel
        assert cfg.dram.standard == scen.standard
        assert cfg.controller.row_policy == scen.row_policy

    @pytest.mark.parametrize("name,ratio", (
        ("c1-r1", 5), ("ddr4-2400-c1", 3), ("lpddr3-1600-c1", 5),
        ("gddr5-4000-c1", 2)))
    def test_clock_ratio_follows_the_standard(self, name, ratio):
        """The 4 GHz CPU's cycles per bus cycle come from the
        standard's bus clock alone: DDR3-1600 and LPDDR3-1600 run at
        800 MHz, DDR4-2400 at 1200 MHz, GDDR5-4000 at 2000 MHz."""
        cfg = build_config(name, "none", TINY)
        assert cfg.cpu_cycles_per_mem_cycle == ratio

    def test_reductions_rescale_with_the_clock(self):
        """~5/10 ns of charge headroom is more cycles on faster buses."""
        ddr3, gddr5 = (
            System(build_config(name, "chargecache", TINY),
                   [iter(())]).controllers[0].mechanism.hit_timings
            for name in ("c1-r1", "gddr5-4000-c1"))
        assert ddr3 == preset("DDR3-1600").reduced_by(4, 8)
        assert gddr5 == preset("GDDR5-4000").reduced_by(10, 20)

    def test_instruction_budget_follows_core_count(self):
        single = build_config("c1-r1", "none", TINY)
        multi = build_config("c4-r1", "none", TINY)
        assert single.instruction_limit == TINY.single_core_instructions
        assert multi.instruction_limit == TINY.multi_core_instructions


class TestWorkloads:
    def test_mix_cycles_to_core_count(self):
        from repro.workloads.mixes import mix_composition
        apps = mix_composition("w1")
        names16 = scenario_workload_names(scenario("c16-r1"), "w1")
        assert len(names16) == 16
        assert names16 == apps + apps
        names2 = scenario_workload_names(scenario("c2-r1"), "w1")
        assert names2 == apps[:2]

    def test_single_application_replicates(self):
        names = scenario_workload_names(scenario("c4-r1"), "mcf")
        assert names == ["mcf"] * 4

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            scenario_workload_names(scenario("c1-r1"), "nosuchapp")

    def test_traces_match_core_count(self):
        from repro.dram.organization import Organization
        cfg = build_config("c2-r2", "none", TINY)
        org = Organization.from_config(cfg.dram)
        traces = make_mix_traces(
            scenario_workload_names(scenario("c2-r2"), "w1"), org)
        assert len(traces) == 2


class TestSpecs:
    def test_scenario_spec_validates_eagerly(self):
        from repro.harness.runner import scenario_spec
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_spec("c3-r1", "w1")
        with pytest.raises(KeyError, match="unknown workload"):
            scenario_spec("c1-r1", "nosuchapp")
        spec = scenario_spec("c2-r2", "w1", "chargecache", TINY)
        assert spec.kind == "scenario"
        assert spec.scenario == "c2-r2"
        assert "c2-r2" in spec.label()

    @pytest.mark.parametrize("mechanism", ["none", "chargecache"])
    def test_paper_platform_points_are_paper_kind_specs(self, mechanism):
        from repro.harness.runner import (mix_spec, scenario_spec,
                                          workload_spec)
        from repro.workloads.mixes import mix_composition
        assert scenario_spec("c8-r1", "w1", mechanism) == \
            mix_spec("w1", mechanism)
        assert scenario_spec("c1-r1", "w1", mechanism,
                             idle_finished=True) == \
            workload_spec(mix_composition("w1")[0], mechanism,
                          idle_finished=True)
        assert scenario_spec("c1-r1", "mcf", mechanism) == \
            workload_spec("mcf", mechanism)
        # One application on every core of c8-r1 is no paper kind.
        assert scenario_spec("c8-r1", "mcf").kind == "scenario"

    def test_spec_kind_scenario_coupling(self):
        with pytest.raises(ValueError, match="scenario runs"):
            RunSpec(kind="scenario", name="w1")
        with pytest.raises(ValueError, match="scenario runs"):
            RunSpec(kind="single", name="mcf", scenario="c1-r1")
