"""Unit tests for the DRAM energy model."""

from dataclasses import asdict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.drampower import (
    DDR3_1600_POWER,
    PowerParameters,
    access_rate_for_run,
    energy_components,
    energy_for_run,
    run_seconds,
)
from repro.dram.standards import PRESETS, preset
from repro.dram.timing import DDR3_1600

P = PowerParameters()


def components(**kwargs):
    defaults = dict(activations=0, reads=0, writes=0, refreshes=0,
                    rank_active_cycles=0, total_rank_cycles=10_000,
                    timing=DDR3_1600)
    defaults.update(kwargs)
    return energy_components(**defaults)


class TestComponents:
    def test_idle_run_is_pure_precharged_background(self):
        e = components()
        assert e.act_pre_pj == 0
        assert e.read_pj == 0
        assert e.background_precharged_pj > 0
        expected = P.idd2n_ma * P.vdd * 10_000 * 1.25 * P.chips_per_rank
        assert e.background_precharged_pj == pytest.approx(expected)

    def test_each_activation_costs_energy(self):
        one = components(activations=1)
        two = components(activations=2)
        delta = two.act_pre_pj - one.act_pre_pj
        assert delta == pytest.approx(one.act_pre_pj)
        assert delta > 0

    def test_reads_cost_more_than_writes_per_burst(self):
        # IDD4R > IDD4W in the datasheet values.
        reads = components(reads=10).read_pj
        writes = components(writes=10).write_pj
        assert reads > writes > 0

    def test_refresh_energy(self):
        e = components(refreshes=3)
        expected = (P.idd5b_ma - P.idd2n_ma) * P.vdd \
            * 3 * DDR3_1600.tRFC * 1.25 * P.chips_per_rank
        assert e.refresh_pj == pytest.approx(expected)

    def test_active_standby_costs_more_than_precharged(self):
        active = components(rank_active_cycles=10_000)
        idle = components(rank_active_cycles=0)
        assert active.total_pj > idle.total_pj

    def test_mechanism_energy_included(self):
        e = components(mechanism_pj=123.0)
        assert e.mechanism_pj == 123.0
        assert e.total_pj >= 123.0


#: Hand-computed single-command energies, in pJ:
#: act  = (IDD0*tRC - IDD3N*tRAS - IDD2N*tRP) * VDD * tCK * chips
#: read = (IDD4R - IDD3N) * VDD * tBL * tCK * chips
#: ref  = (IDD5B - IDD2N) * VDD * tRFC * tCK * chips
_GOLDEN_PJ = {
    "DDR3-1600": {"act": 10935.0, "read": 7140.0, "refresh": 555360.0},
}


class TestStandardPresets:
    """Golden-value checks for the one power preset, DDR3-1600's."""

    @pytest.mark.parametrize("standard", sorted(_GOLDEN_PJ))
    def test_golden_single_command_energies(self, standard):
        golden = _GOLDEN_PJ[standard]
        e = energy_components(
            activations=1, reads=1, writes=0, refreshes=1,
            rank_active_cycles=0, total_rank_cycles=10_000,
            timing=preset(standard), power=DDR3_1600_POWER)
        assert e.act_pre_pj == pytest.approx(golden["act"])
        assert e.read_pj == pytest.approx(golden["read"])
        assert e.refresh_pj == pytest.approx(golden["refresh"])

    @pytest.mark.parametrize("standard", sorted(_GOLDEN_PJ))
    def test_presets_validate_and_match_their_timing(self, standard):
        DDR3_1600_POWER.validate()
        assert DDR3_1600_POWER.name == preset(standard).name == standard

    def test_ddr3_preset_is_the_legacy_default(self):
        """The pre-profile model hardcoded these values; the DDR3
        preset must keep producing bit-identical energies."""
        assert DDR3_1600_POWER == PowerParameters()


def _fake_run(config, mem_cycles=100_000, activations=500, reads=2000,
              writes=700, refreshes=12, rank_active_cycles=40_000):
    """Minimal RunResult stand-in for the energy path."""
    return SimpleNamespace(
        config=config, mem_cycles=mem_cycles, activations=activations,
        reads=reads, writes=writes, refreshes=refreshes,
        rank_active_cycles=rank_active_cycles)


class TestRunResolution:
    """energy_for_run must use the run config's own standard."""

    @pytest.mark.parametrize("platform,standard", [
        ("ddr4-2400-c1", "DDR4-2400"), ("lpddr3-1600-c1", "LPDDR3-1600")])
    def test_a_run_without_currents_raises(self, platform, standard):
        """Only DDR3-1600 has an IDD set: a run on another standard is
        refused, naming its standard and the one that has currents,
        rather than billed at DDR3's currents."""
        from repro.harness.runner import build_config
        run = _fake_run(build_config(platform, "none"))
        with pytest.raises(ValueError, match=standard) as exc:
            energy_for_run(run)
        assert "DDR3-1600" in str(exc.value)
        # Its clock still resolves: run time is in its own bus cycles.
        assert run_seconds(run) == pytest.approx(
            run.mem_cycles * preset(standard).tCK_ns * 1e-9)

    def test_ddr3_resolution_matches_legacy_explicit_call(self):
        """Pre-change callers passed DDR3_1600 + PowerParameters()
        explicitly; resolving from a DDR3 config must be bit-identical
        (fig8's DDR3 numbers cannot move)."""
        from repro.config import eight_core_config
        run = _fake_run(eight_core_config())
        resolved = energy_for_run(run)
        legacy = energy_components(
            activations=run.activations, reads=run.reads,
            writes=run.writes, refreshes=run.refreshes,
            rank_active_cycles=run.rank_active_cycles,
            total_rank_cycles=2 * run.mem_cycles,
            timing=DDR3_1600, power=PowerParameters())
        assert asdict(resolved) == asdict(legacy)

    def test_access_rate_uses_own_clock(self):
        from repro.harness.runner import build_config
        counts = dict(mem_cycles=80_000, activations=100, reads=400,
                      writes=100)
        ddr3 = _fake_run(build_config("c1-r1", "none"), **counts)
        ddr4 = _fake_run(build_config("ddr4-2400-c1", "none"), **counts)
        # Same counts, 1.5x faster clock => 1.5x the access rate.
        assert access_rate_for_run(ddr4) == pytest.approx(
            access_rate_for_run(ddr3) * 1.5)


class TestValidation:
    def test_active_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            components(rank_active_cycles=20_000)

    def test_bad_power_parameters_rejected(self):
        bad = PowerParameters(idd3n_ma=10.0, idd2n_ma=32.0)
        with pytest.raises(ValueError):
            components(power=bad)

    @pytest.mark.parametrize("field", ["idd4r_ma", "idd4w_ma"])
    def test_burst_current_below_active_standby_rejected(self, field):
        bad = PowerParameters(**{field: P.idd3n_ma - 1.0})
        with pytest.raises(ValueError, match="IDD4R/IDD4W"):
            components(power=bad)

    def test_refresh_current_below_precharged_standby_rejected(self):
        bad = PowerParameters(idd5b_ma=P.idd2n_ma - 1.0)
        with pytest.raises(ValueError, match="IDD5B"):
            components(power=bad)

    @pytest.mark.parametrize("field", ["idd0_ma", "idd2n_ma", "idd3n_ma",
                                       "idd4r_ma", "idd4w_ma", "idd5b_ma"])
    def test_non_positive_currents_rejected(self, field):
        # Negative standby currents would satisfy the ordering checks
        # while still producing negative background energy.
        bad = PowerParameters(**{field: -1.0})
        with pytest.raises(ValueError, match=field):
            components(power=bad)

    @pytest.mark.parametrize("field", ["activations", "reads", "writes",
                                       "refreshes", "rank_active_cycles",
                                       "total_rank_cycles"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            components(**{field: -1})

    def test_negative_mechanism_energy_rejected(self):
        with pytest.raises(ValueError):
            components(mechanism_pj=-1.0)


class TestBreakdown:
    def test_total_is_sum_of_parts(self):
        e = components(activations=5, reads=7, writes=3, refreshes=1,
                       rank_active_cycles=500)
        parts = (e.act_pre_pj + e.read_pj + e.write_pj + e.refresh_pj
                 + e.background_active_pj + e.background_precharged_pj
                 + e.mechanism_pj)
        assert e.total_pj == pytest.approx(parts)



class TestProperties:
    @given(st.sampled_from(sorted(PRESETS)),
           st.integers(0, 1000), st.integers(0, 1000),
           st.integers(0, 1000), st.integers(0, 50),
           st.integers(0, 10_000))
    @settings(max_examples=150)
    def test_energy_never_negative_on_any_standard(self, standard, acts,
                                                   reads, writes, refs,
                                                   active):
        """Every breakdown component is non-negative for the DDR3
        currents priced on every standard's timing."""
        e = energy_components(activations=acts, reads=reads,
                              writes=writes, refreshes=refs,
                              rank_active_cycles=active,
                              total_rank_cycles=10_000,
                              timing=preset(standard),
                              power=DDR3_1600_POWER)
        for value in asdict(e).values():
            assert value >= 0

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_monotone_in_activations(self, acts):
        a = components(activations=acts).total_pj
        b = components(activations=acts + 1).total_pj
        assert b > a
