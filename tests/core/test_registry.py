"""Tests for the mechanism registry and spec mini-language.

Canonical strings are cache-key material (DESIGN.md section 6), so the
round-trip and normalization behaviour here is golden: changing it
silently re-keys the persistent run cache.
"""

from dataclasses import fields, replace

import pytest

from repro.config import (
    ChargeCacheConfig,
    NUATConfig,
    SimulationConfig,
    single_core_config,
)
from repro.core import registry
from repro.core.chargecache import ChargeCache
from repro.core.nuat import NUAT
from repro.core.lldram import LowLatencyDRAM
from repro.core.aldram import ALDRAM
from repro.core.timing_policy import CombinedMechanism, LatencyMechanism
from repro.dram.refresh import RefreshScheduler
from repro.dram.standards import derated_reduction_cycles, preset
from repro.dram.timing import DDR3_1600
from tests.helpers import default_context

#: The pre-registry fixed mechanism menu.  Cache keys computed before
#: the registry existed used these spellings, so each must keep
#: normalizing to itself.
PRE_REGISTRY_NAMES = ("none", "chargecache", "nuat", "chargecache+nuat",
                      "lldram", "aldram", "chargecache+aldram")


def _canonical(spec):
    return registry.parse_mechanism_spec(spec).canonical()


@pytest.fixture
def refresh():
    return RefreshScheduler(DDR3_1600, 1, 64 * 1024)


@pytest.fixture
def ctx(refresh):
    return registry.MechanismContext(
        timing=DDR3_1600, num_cores=1, refresh_scheduler=refresh)


class TestParseNormalize:
    #: (input, canonical) golden pairs — canonical strings feed cache
    #: keys, so these are regression-pinned.
    GOLDEN = [
        ("none", "none"),
        ("chargecache", "chargecache"),
        (" chargecache ", "chargecache"),
        ("chargecache()", "chargecache"),
        ("chargecache(entries=128)", "chargecache"),       # default drops
        ("chargecache(duration_ms=1.0)", "chargecache"),   # default drops
        ("chargecache(entries=256)", "chargecache(entries=256)"),
        ("chargecache(duration_ms=0.5)",
         "chargecache(caching_duration_ms=0.5)"),          # alias resolves
        ("chargecache(entries=256, duration_ms=0.5)",
         "chargecache(caching_duration_ms=0.5,entries=256)"),
        ("chargecache+nuat", "chargecache+nuat"),
        ("nuat+chargecache", "chargecache+nuat"),          # order sorts
        ("chargecache+aldram", "chargecache+aldram"),
        ("aldram+chargecache", "chargecache+aldram"),
        ("aldram(temperature=55)+nuat+chargecache(entries=64)",
         "chargecache(entries=64)+nuat+aldram(temperature_c=55.0)"),
        ("chargecache(unbounded=true)", "chargecache(unbounded=true)"),
        ("chargecache(sharing=shared)", "chargecache(sharing=shared)"),
    ]

    @pytest.mark.parametrize("text,canonical", GOLDEN)
    def test_canonical_golden(self, text, canonical):
        assert _canonical(text) == canonical

    @pytest.mark.parametrize("text,canonical", GOLDEN)
    def test_canonical_round_trips(self, text, canonical):
        """parse(canonical(s)) == parse(s), and canonical is a fixed
        point — the property that makes it safe cache-key material."""
        spec = registry.parse_mechanism_spec(text)
        again = registry.parse_mechanism_spec(spec.canonical())
        assert again == spec
        assert again.canonical() == canonical

    def test_permutations_one_canonical(self):
        import itertools
        names = ("chargecache(entries=64)", "nuat", "aldram")
        forms = {_canonical("+".join(p))
                 for p in itertools.permutations(names)}
        assert len(forms) == 1

    @pytest.mark.parametrize("bad", [
        "", "   ", "bogus", "chargecache(", "chargecache)",
        "chargecache(entries)", "chargecache(entries=)",
        "chargecache(entries=abc)", "chargecache(entries=1.5)",
        "chargecache(unbounded=maybe)", "chargecache(frobnicate=1)",
        "chargecache(entries=0)", "chargecache(entries=101)",  # assoc 2
        "none(x=1)", "none+chargecache", "chargecache+chargecache",
        "nuat(bin_edges_ms=3)",  # tuple params have no inline syntax
        "lldram(entries=64)",    # dead knob: lldram hits on every ACT
        "lldram(sharing=shared)",
        "aldram(temperature=-41)", "aldram(temperature=126)",
        "lldram(duration_ms=0)", "chargecache(duration_ms=-1)",
        "chargecache(duration_ms=nan)", "chargecache(duration_ms=inf)",
        "chargecache(time_scale=nan)", "lldram(duration_ms=nan)",
        "+chargecache", "chargecache+",
    ])
    def test_invalid_specs_fail_eagerly(self, bad):
        with pytest.raises(ValueError):
            registry.parse_mechanism_spec(bad)

    def test_cross_field_validation_is_against_registered_defaults(self):
        """Documented limitation (DESIGN.md section 6): eager
        validation merges inline values into the registered defaults,
        so a spec only valid against a custom config block must spell
        the coupled parameters inline together."""
        with pytest.raises(ValueError, match="associativity"):
            # 3 is fine with associativity=3, but the registered
            # default is 2 and the parse has no config in hand.
            registry.parse_mechanism_spec("chargecache(entries=3)")
        spec = registry.parse_mechanism_spec(
            "chargecache(entries=3,associativity=3)")
        assert spec.canonical() == \
            "chargecache(associativity=3,entries=3)"

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            registry.parse_mechanism_spec(
                "chargecache(entries=64,entries=32)")
        with pytest.raises(ValueError, match="twice"):
            # Alias and canonical name collide.
            registry.parse_mechanism_spec(
                "chargecache(duration_ms=2,caching_duration_ms=4)")


class TestRegistryCompleteness:
    def test_every_registered_name_constructible_with_defaults(self):
        ctx = default_context()
        for name in registry.mechanism_names():
            mech = registry.build(name, ctx)
            assert mech.name == name
            # The mechanism interface is usable out of the box.
            mech.on_activate(0, 0, 0, 0, 0)
            assert mech.lookups == 1

    def test_mechanisms_era_names_resolve_through_registry(self):
        """Every pre-registry plain name must parse, normalize to
        itself, and build — shim coverage cannot rot."""
        ctx = default_context()
        for name in PRE_REGISTRY_NAMES:
            assert _canonical(name) == name
            mech = registry.build(name, ctx)
            assert mech.name == name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="registered"):
            registry.registered("warpdrive")

    def test_names_are_the_five_in_canonical_order(self):
        assert registry.mechanism_names() == \
            ["none", "chargecache", "nuat", "lldram", "aldram"]

    @pytest.mark.parametrize("name", registry.mechanism_names())
    def test_params_class_validates_its_defaults(self, name):
        """Every parsed term with inline values is checked by its
        params class's ``validate()``, so each params class has one
        and its defaults pass it."""
        params_type = registry.registered(name).params_type
        if params_type is None:
            assert name == "none"
            return
        assert callable(getattr(params_type, "validate", None))
        params_type().validate()

    @pytest.mark.parametrize("name", registry.mechanism_names())
    def test_aliases_target_params_fields(self, name):
        entry = registry.registered(name)
        if entry.aliases:
            assert set(entry.aliases.values()) <= {
                f.name for f in fields(entry.params_type)}


class TestBuild:
    def test_plain_types(self, ctx):
        assert type(registry.build("none", ctx)) is LatencyMechanism
        assert isinstance(registry.build("chargecache", ctx), ChargeCache)
        assert isinstance(registry.build("nuat", ctx), NUAT)
        assert isinstance(registry.build("lldram", ctx), LowLatencyDRAM)
        assert isinstance(registry.build("aldram", ctx), ALDRAM)

    def test_inline_params_reach_the_mechanism(self, ctx):
        mech = registry.build("chargecache(entries=256,sharing=shared)",
                              ctx)
        assert mech.config.entries == 256
        assert mech.config.sharing == "shared"
        assert len(mech.tables) == 1  # shared mode: one table

    def test_spec_is_the_only_input(self):
        """The parameters are the registered defaults plus the inline
        values; the reductions derive from the duration on the
        context's timing."""
        ddr4 = registry.MechanismContext(timing=preset("DDR4-2400"))
        for spec in ("chargecache", "lldram"):
            assert registry.build(spec, ddr4).hit_timings == \
                ddr4.timing.reduced_by(6, 12)
        mech = registry.build("chargecache(entries=64,duration_ms=16)",
                              ddr4)
        assert mech.config == ChargeCacheConfig(entries=64,
                                                caching_duration_ms=16.0)
        assert mech.hit_timings == ddr4.timing.reduced_by(
            *derated_reduction_cycles(ddr4.timing, 16.0))
        for param in ("trcd_reduction_cycles", "tras_reduction_cycles"):
            for name in ("chargecache", "lldram"):
                with pytest.raises(ValueError, match="no parameter"):
                    registry.parse_mechanism_spec(f"{name}({param}=4)")

    def test_inline_duration_rederives_reductions(self, ctx):
        """An inline duration re-derives the Table 2 timing reductions
        exactly like the harness's cc_duration_ms path does."""
        from repro.circuit.latency_tables import reductions_for_duration_ms
        for spec in ("chargecache(duration_ms=16)", "lldram(duration_ms=16)"):
            assert registry.build(spec, ctx).hit_timings == \
                DDR3_1600.reduced_by(*reductions_for_duration_ms(16.0))

    def test_aldram_temperature_inline(self, ctx):
        cool = registry.build("aldram(temperature=55)", ctx)
        assert cool.temperature_c == 55.0
        assert cool.on_activate(0, 0, 0, 0, 0) is not None  # derated

    def test_nuat_requires_refresh_scheduler(self):
        ctx = registry.MechanismContext(timing=DDR3_1600)
        with pytest.raises(ValueError, match="refresh scheduler"):
            registry.build("nuat", ctx)


def _stimulus(mech, rows=64, cycles_per_step=50):
    """Drive a mechanism through a deterministic ACT/PRE pattern and
    return every observable (offer sequence + stats)."""
    offers = []
    cycle = 0
    for step in range(400):
        row = (step * 7) % rows
        bank = step % 8
        cycle += cycles_per_step
        if step % 3 == 0:
            mech.on_precharge(0, bank, row, 0, cycle)
        else:
            offers.append(mech.on_activate(0, bank, row, 0, cycle))
    return offers, mech.lookups, mech.hits


class TestNWayComposition:
    def test_two_way_parity_with_legacy_pairs(self, refresh):
        """Registry-built chargecache+nuat behaves bit-for-bit like a
        hand-assembled two-way CombinedMechanism."""
        legacy = CombinedMechanism(
            DDR3_1600,
            ChargeCache(DDR3_1600, ChargeCacheConfig(), 1),
            NUAT(DDR3_1600, NUATConfig(), refresh))
        built = registry.build("nuat+chargecache", registry.MechanismContext(
            timing=DDR3_1600, num_cores=1, refresh_scheduler=refresh))
        assert _stimulus(legacy) == _stimulus(built)

    def test_three_way_equals_pairwise_min(self, refresh):
        """N-way composition == folding the same parts pairwise: same
        offers on every ACT (min is associative)."""
        def parts():
            return (ChargeCache(DDR3_1600, ChargeCacheConfig(), 1),
                    NUAT(DDR3_1600, NUATConfig(), refresh),
                    LowLatencyDRAM(DDR3_1600))

        flat = CombinedMechanism(DDR3_1600, *parts())
        a, b, c = parts()
        nested = CombinedMechanism(
            DDR3_1600, CombinedMechanism(DDR3_1600, a, b), c)
        flat_offers, flat_lookups, flat_hits = _stimulus(flat)
        nested_offers, _, _ = _stimulus(nested)
        assert flat_offers == nested_offers
        assert flat_lookups == 266 and flat_hits == 266  # lldram: all hit

    def test_three_way_reset(self, refresh):
        mech = registry.build(
            "chargecache+nuat+aldram",
            registry.MechanismContext(timing=DDR3_1600, num_cores=1,
                                      refresh_scheduler=refresh))
        assert isinstance(mech, CombinedMechanism)
        assert len(mech.mechanisms) == 3
        mech.on_precharge(0, 0, 5, 0, 10)
        mech.on_activate(0, 0, 5, 0, 20)
        mech.reset_stats()
        assert mech.lookups == 0
        assert all(m.lookups == 0 for m in mech.mechanisms)

    def test_combined_requires_two_parts(self):
        with pytest.raises(ValueError):
            CombinedMechanism(DDR3_1600, LatencyMechanism(DDR3_1600))


class TestExtractRunParams:
    def test_folds_inline_chargecache_shorthand(self):
        assert registry.extract_run_params(
            "nuat+chargecache(entries=256,unbounded=true)") == \
            ("chargecache+nuat", 256, None, True)

    def test_defaults_normalize_to_none(self):
        assert registry.extract_run_params(
            "chargecache(entries=128,duration_ms=1.0)") == \
            ("chargecache", None, None, False)
        assert registry.extract_run_params(
            "chargecache", cc_entries=128, cc_duration_ms=1.0) == \
            ("chargecache", None, None, False)

    def test_kwargs_and_inline_merge(self):
        assert registry.extract_run_params(
            "chargecache(entries=256)", cc_duration_ms=0.5) == \
            ("chargecache", 256, 0.5, False)
        # Agreeing duplicates are fine.
        assert registry.extract_run_params(
            "chargecache(entries=256)", cc_entries=256)[1] == 256

    def test_conflicting_values_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            registry.extract_run_params("chargecache(entries=256)",
                                        cc_entries=64)

    def test_default_valued_inline_yields_to_shorthand(self):
        """An inline value at the registered default is an identity
        (dropped at parse time), so it is NOT a conflict with a
        shorthand value — the shorthand wins, matching the
        config-block precedence at build time (DESIGN.md section 6)."""
        assert registry.extract_run_params(
            "chargecache(entries=128)", cc_entries=256) == \
            ("chargecache", 256, None, False)

    def test_non_shorthand_params_keep_the_whole_term_inline(self):
        """A term with any non-shorthand parameter is not split:
        cross-field constraints (entries % associativity) couple the
        values, so the term stays inline as one validated unit and
        the shorthand fields come back empty."""
        assert registry.extract_run_params(
            "chargecache(entries=256,sharing=shared)") == \
            ("chargecache(entries=256,sharing=shared)", None, None, False)
        # Shorthand kwargs merge INTO the inline term in that case.
        assert registry.extract_run_params(
            "chargecache(sharing=shared)", cc_entries=256) == \
            ("chargecache(entries=256,sharing=shared)", None, None, False)
        # The DESIGN.md workaround spec flows through the harness fold.
        assert registry.extract_run_params(
            "chargecache(entries=3,associativity=3)") == \
            ("chargecache(associativity=3,entries=3)", None, None, False)

    def test_without_chargecache_term_passthrough(self):
        assert registry.extract_run_params("lldram(duration_ms=16)") \
            == ("lldram(caching_duration_ms=16.0)", None, None, False)
        with pytest.raises(ValueError, match="chargecache term"):
            registry.extract_run_params("lldram", cc_duration_ms=16.0)

    def test_shorthand_values_coerced_to_grammar_types(self):
        """cc_duration_ms=4 (int) and duration_ms=4.0 inline are one
        run and must fold identically (cache keys hash the values)."""
        assert registry.extract_run_params(
            "chargecache", cc_duration_ms=4) == \
            registry.extract_run_params("chargecache(duration_ms=4.0)")
        assert registry.extract_run_params(
            "chargecache(duration_ms=4)", cc_duration_ms=4)[2] == 4.0

    def test_lldram_duration_stays_inline(self):
        """The cc_* fields are chargecache's alone: an LL-DRAM
        duration has one spelling, inline, and the keyword raises."""
        assert registry.extract_run_params("lldram(duration_ms=4)") == \
            ("lldram(caching_duration_ms=4.0)", None, None, False)
        with pytest.raises(ValueError, match="chargecache term"):
            registry.extract_run_params("lldram(duration_ms=4)",
                                        cc_duration_ms=8.0)


class TestConfigIntegration:
    def test_simulation_config_accepts_parameterized_specs(self):
        SimulationConfig(
            mechanism="chargecache(entries=256)+nuat").validate()

    def test_simulation_config_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SimulationConfig(mechanism="chargecache(entries=-1)").validate()
        with pytest.raises(ValueError):
            SimulationConfig(mechanism="turbo").validate()

    def test_replaced_mechanism_rejected(self):
        base = single_core_config("none")
        with pytest.raises(ValueError):
            replace(base, mechanism="not-a-mechanism").validate()
        with pytest.raises(ValueError):
            replace(base, mechanism="chargecache(entries=3)").validate()  # assoc 2

    def test_replaced_engine_rejected(self):
        with pytest.raises(ValueError):
            replace(single_core_config("none"), engine="warp").validate()
