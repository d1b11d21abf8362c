"""Unit tests for the platform table (``runner.PLATFORMS``).

Platform names feed run-cache keys through the run kinds, so this
suite locks both the name set and each name's platform binding:
renaming is a visible (golden-test) change, silently re-binding a
name to a different platform is a bug.
"""

import pytest

from repro.config import RANKS_PER_CHANNEL, SimulationConfig
from repro.cpu.system import System
from repro.dram.standards import preset
from repro.harness.runner import (
    KIND_PLATFORMS,
    PLATFORMS,
    build_config,
    platform,
)
from repro.harness.spec import RUN_KINDS, Scale

TINY = Scale(single_core_instructions=2000, multi_core_instructions=900,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

#: Golden copy of the platform table: name -> (cores, channels,
#: standard, policy).  A failure here means a cache-key-visible change
#: — fine if intentional (new names invalidate nothing), but a changed
#: *binding* for an existing name must instead use a new name.
GOLDEN = {
    "c1-r1": (1, 1, "DDR3-1600", "open"),
    "c8-r1": (8, 2, "DDR3-1600", "closed"),
    "ddr4-2400-c1": (1, 1, "DDR4-2400", "open"),
    "lpddr3-1600-c1": (1, 1, "LPDDR3-1600", "open"),
}


class TestRegistry:
    def test_names_are_stable(self):
        assert set(PLATFORMS) == set(GOLDEN)

    def test_platform_bindings_are_stable(self):
        for name, (cores, channels, std, policy) in GOLDEN.items():
            plat = platform(name)
            assert (plat.num_cores, plat.channels, plat.standard,
                    plat.row_policy) == (cores, channels, std,
                                         policy), name

    def test_no_two_names_share_a_platform(self):
        """Duplicate platforms under two names would run (and cache)
        the same simulation twice in the shared `all` sweep."""
        platforms = {}
        for plat in PLATFORMS.values():
            key = (plat.num_cores, plat.channels, plat.standard,
                   plat.row_policy)
            assert key not in platforms, (
                f"{plat.name} duplicates {platforms[key]}")
            platforms[key] = plat.name

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError, match="unknown platform"):
            platform("c4-r2")

    def test_run_kinds_resolve_to_paper_platforms(self):
        assert platform("single") is platform("trace") \
            is PLATFORMS["c1-r1"]
        assert platform("eight") is platform("alone") \
            is PLATFORMS["c8-r1"]
        assert platform("ddr4-2400-c1") is PLATFORMS["ddr4-2400-c1"]
        assert set(KIND_PLATFORMS) == set(RUN_KINDS)
        with pytest.raises(ValueError, match="unknown platform"):
            platform("dual")


class TestConfigConstruction:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_platform_builds_a_valid_config(self, name):
        cfg = build_config(name, "chargecache", TINY)
        assert isinstance(cfg, SimulationConfig)
        cfg.validate()  # idempotent; build_config validated already
        plat = platform(name)
        assert cfg.processor.num_cores == plat.num_cores
        assert cfg.dram.channels == plat.channels
        assert cfg.dram.standard == plat.standard
        assert cfg.controller.row_policy == plat.row_policy
        system = System(cfg, [iter(())] * plat.num_cores)
        assert all(len(ctrl.channel.ranks) == RANKS_PER_CHANNEL
                   for ctrl in system.controllers)

    @pytest.mark.parametrize("name,ratio", (
        ("c1-r1", 5), ("ddr4-2400-c1", 3), ("lpddr3-1600-c1", 5)))
    def test_clock_ratio_follows_the_standard(self, name, ratio):
        """The 4 GHz CPU's cycles per bus cycle come from the
        standard's bus clock alone: DDR3-1600 and LPDDR3-1600 run at
        800 MHz, DDR4-2400 at 1200 MHz."""
        cfg = build_config(name, "none", TINY)
        assert cfg.cpu_cycles_per_mem_cycle == ratio

    def test_reductions_rescale_with_the_clock(self):
        """~5/10 ns of charge headroom is more cycles on faster buses."""
        ddr3, ddr4 = (
            System(build_config(name, "chargecache", TINY),
                   [iter(())]).controllers[0].mechanism.hit_timings
            for name in ("c1-r1", "ddr4-2400-c1"))
        assert ddr3 == preset("DDR3-1600").reduced_by(4, 8)
        assert ddr4 == preset("DDR4-2400").reduced_by(6, 12)

    def test_instruction_budget_follows_core_count(self):
        single = build_config("c1-r1", "none", TINY)
        multi = build_config("c8-r1", "none", TINY)
        assert single.instruction_limit == TINY.single_core_instructions
        assert multi.instruction_limit == TINY.multi_core_instructions
