"""Unit tests for the DRAM energy model."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.drampower import (
    DDR3PowerParameters,
    EnergyBreakdown,
    PowerParameters,
    access_rate_for_run,
    energy_components,
    energy_for_run,
    run_seconds,
)
from repro.dram.standards import PROFILES, profile
from repro.dram.timing import DDR3_1600

P = DDR3PowerParameters()


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


#: Hand-computed single-command energies per standard, in pJ:
#: act  = (IDD0*tRC - IDD3N*tRAS - IDD2N*tRP) * VDD * tCK * chips
#: read = (IDD4R - IDD3N) * VDD * tBL * tCK * chips
#: ref  = (IDD5B - IDD2N) * VDD * tRFC * tCK * chips
_GOLDEN_PJ = {
    "DDR3-1600": {"act": 10935.0, "read": 7140.0, "refresh": 555360.0},
    "DDR4-2400": {"act": 7440.0, "read": 3392.0, "refresh": 675360.0},
    "LPDDR3-1600": {"act": 2667.0, "read": 1968.0, "refresh": 66024.0},
    "GDDR5-4000": {"act": 3360.0, "read": 630.0, "refresh": 167700.0},
}


class TestStandardPresets:
    """Golden-value checks for every standard's power preset."""

    @pytest.mark.parametrize("standard", sorted(PROFILES))
    def test_golden_single_command_energies(self, standard):
        prof = profile(standard)
        golden = _GOLDEN_PJ[standard]
        e = energy_components(
            activations=1, reads=1, writes=0, refreshes=1,
            rank_active_cycles=0, total_rank_cycles=10_000,
            timing=prof.timing, power=prof.power)
        assert e.act_pre_pj == pytest.approx(golden["act"])
        assert e.read_pj == pytest.approx(golden["read"])
        assert e.refresh_pj == pytest.approx(golden["refresh"])

    @pytest.mark.parametrize("standard", sorted(PROFILES))
    def test_presets_validate_and_match_their_timing(self, standard):
        prof = profile(standard)
        prof.validate()
        assert prof.power.name == prof.timing.name == standard

    def test_ddr3_preset_is_the_legacy_default(self):
        """The pre-profile model hardcoded these values; the DDR3
        profile must keep producing bit-identical energies."""
        assert profile("DDR3-1600").power == DDR3PowerParameters()


def _fake_run(config, mem_cycles=100_000, activations=500, reads=2000,
              writes=700, refreshes=12, rank_active_cycles=40_000):
    """Minimal RunResult stand-in for the energy path."""
    return SimpleNamespace(
        config=config, mem_cycles=mem_cycles, activations=activations,
        reads=reads, writes=writes, refreshes=refreshes,
        rank_active_cycles=rank_active_cycles)


class TestRunResolution:
    """energy_for_run must use the run config's own standard."""

    def _scenario_run(self, name):
        from repro.harness.runner import build_config
        return _fake_run(build_config(name, "none"))

    def test_ddr4_run_uses_ddr4_clock_and_currents(self):
        run = self._scenario_run("ddr4-2400-c1")
        prof = profile("DDR4-2400")
        e = energy_for_run(run)
        expected = energy_components(
            activations=run.activations, reads=run.reads,
            writes=run.writes, refreshes=run.refreshes,
            rank_active_cycles=run.rank_active_cycles,
            total_rank_cycles=run.mem_cycles,
            timing=prof.timing, power=prof.power)
        assert e.as_dict() == pytest.approx(expected.as_dict())
        # The same counts billed at DDR3's clock/IDD set differ: the
        # pre-change hardcoded-DDR3 path was wrong for this run.
        wrong = energy_for_run(run, timing=DDR3_1600,
                               power=DDR3PowerParameters())
        assert e.total_pj != pytest.approx(wrong.total_pj)
        assert run_seconds(run) == pytest.approx(
            run.mem_cycles * prof.timing.tCK_ns * 1e-9)

    def test_ddr3_resolution_matches_legacy_explicit_call(self):
        """Pre-change callers passed DDR3_1600 + DDR3PowerParameters()
        explicitly; resolving from a DDR3 config must be bit-identical
        (fig8's DDR3 numbers cannot move)."""
        from repro.config import eight_core_config
        run = _fake_run(eight_core_config())
        resolved = energy_for_run(run)
        legacy = energy_for_run(run, timing=DDR3_1600,
                                power=DDR3PowerParameters())
        assert resolved.as_dict() == legacy.as_dict()

    def test_access_rate_uses_own_clock(self):
        from repro.harness.runner import build_config
        counts = dict(mem_cycles=80_000, activations=100, reads=400,
                      writes=100)
        ddr3 = _fake_run(build_config("c1-r1", "none"), **counts)
        gddr5 = _fake_run(build_config("gddr5-4000-c1", "none"),
                          **counts)
        # Same counts, 2.5x faster clock => 2.5x the access rate.
        assert access_rate_for_run(gddr5) == pytest.approx(
            access_rate_for_run(ddr3) * 2.5)


class TestValidation:
    def test_active_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            components(rank_active_cycles=20_000)

    def test_bad_power_parameters_rejected(self):
        bad = DDR3PowerParameters(idd3n_ma=10.0, idd2n_ma=32.0)
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

    def test_as_dict_round_trip(self):
        e = components(activations=5)
        d = e.as_dict()
        assert d["act_pre_pj"] == e.act_pre_pj
        assert d["total_pj"] == e.total_pj

    def test_total_mj(self):
        e = EnergyBreakdown(1e9, 0, 0, 0, 0, 0)
        assert e.total_mj == pytest.approx(1.0)


class TestProperties:
    @given(st.sampled_from(sorted(PROFILES)),
           st.integers(0, 1000), st.integers(0, 1000),
           st.integers(0, 1000), st.integers(0, 50),
           st.integers(0, 10_000))
    @settings(max_examples=150)
    def test_energy_never_negative_on_any_standard(self, standard, acts,
                                                   reads, writes, refs,
                                                   active):
        """Every breakdown component is non-negative for every power
        preset of the scenario matrix's standards family."""
        prof = profile(standard)
        e = energy_components(activations=acts, reads=reads,
                              writes=writes, refreshes=refs,
                              rank_active_cycles=active,
                              total_rank_cycles=10_000,
                              timing=prof.timing, power=prof.power)
        for value in e.as_dict().values():
            assert value >= 0

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_monotone_in_activations(self, acts):
        a = components(activations=acts).total_pj
        b = components(activations=acts + 1).total_pj
        assert b > a
