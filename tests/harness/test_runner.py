"""Tests for the harness run manager."""

import math

import pytest

from repro.core import registry
from repro.core.chargecache import chargecache_params
from repro.dram.timing import DDR3_1600
from repro.harness import runner
from repro.harness.runner import (
    Scale,
    alone_spec,
    build_config,
    clear_caches,
    clear_memo,
    current_scale,
    mix_spec,
    run_spec,
    run_spec_ex,
    workload_spec,
)
from repro.harness.spec import RunSpec
from tests.helpers import default_context

TINY = Scale(single_core_instructions=2000, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)


class TestScale:
    def test_default_scale(self):
        scale = Scale()
        assert scale.single_core_instructions > 0
        assert scale.time_scale == 64.0

    def test_scaled(self):
        assert Scale().scaled(2.0).single_core_instructions == \
            2 * Scale().single_core_instructions

    def test_scaled_floors(self):
        assert Scale().scaled(1e-9).single_core_instructions == 1000

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            Scale().scaled(0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 1e308])
    def test_non_finite_or_overflowing_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="scale factor"):
            Scale().scaled(factor)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0"])
    def test_bad_env_scale_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SCALE", value)
        with pytest.raises(ValueError, match=f"REPRO_SCALE.*'{value}'"):
            current_scale()

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert current_scale().single_core_instructions == \
            2 * Scale().single_core_instructions


class TestBuildConfig:
    def test_single_mode(self):
        cfg = build_config("single", "chargecache", TINY)
        assert cfg.processor.num_cores == 1
        assert cfg.controller.row_policy == "open"
        assert cfg.instruction_limit == 2000

    def test_eight_mode(self):
        cfg = build_config("eight", "none", TINY)
        assert cfg.processor.num_cores == 8
        assert cfg.dram.channels == 2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_config("dual", "none", TINY)

    def test_duration_selects_reductions(self):
        cfg1 = build_config("single", "chargecache(duration_ms=1)", TINY)
        cfg16 = build_config("single", "chargecache(duration_ms=16)",
                             TINY)
        ctx = default_context()
        assert registry.build(cfg1.mechanism, ctx).hit_timings == \
            DDR3_1600.reduced_by(4, 8)
        assert registry.build(cfg16.mechanism, ctx).hit_timings.trcd > \
            DDR3_1600.tRCD - 4

    def test_capacity_override(self):
        cfg = build_config("single", "chargecache(entries=512)", TINY)
        assert chargecache_params(cfg.mechanism).entries == 512
        assert runner._spec_config(workload_spec(
            "mcf", "chargecache", TINY, cc_entries=512)).mechanism == \
            cfg.mechanism

    def test_row_policy_override(self):
        cfg = build_config("single", "none", TINY, row_policy="closed")
        assert cfg.controller.row_policy == "closed"

    @pytest.mark.parametrize("knobs", [
        {}, {"cc_entries": 512}, {"cc_duration_ms": 16.0},
        {"cc_unbounded": True}, {"row_policy": "closed"}])
    @pytest.mark.parametrize("mechanism", [
        "none", "chargecache", "nuat", "lldram", "chargecache+nuat"])
    def test_paper_kinds_are_their_scenarios(self, mechanism, knobs):
        """A paper kind and its scenario spelling are one spec and one
        config, whose chargecache term carries the spec's knobs."""
        for kind, scen, name in (("single", "c1-r1", "mcf"),
                                 ("eight", "c8-r1", "w1")):
            fields = dict(name=name, mechanism=mechanism, scale=TINY,
                          **knobs)
            try:
                spec = RunSpec(kind=kind, **fields)
            except ValueError:  # a knob no term of the spec reads
                with pytest.raises(ValueError, match="term"):
                    RunSpec(kind="scenario", scenario=scen, **fields)
                continue
            assert RunSpec(kind="scenario", scenario=scen, **fields) \
                == spec
            inline = registry.fill_params(mechanism, "chargecache", {
                "entries": knobs.get("cc_entries"),
                "caching_duration_ms": knobs.get("cc_duration_ms"),
                "unbounded": knobs.get("cc_unbounded")})
            assert runner._spec_config(spec) == build_config(
                scen, inline, TINY, row_policy=knobs.get("row_policy"))

    def test_alone_is_one_core_of_the_eight_core_platform(self):
        cfg = runner._spec_config(alone_spec("mcf", TINY))
        eight = build_config("eight", "none", TINY)
        assert cfg.processor.num_cores == 1
        assert (cfg.dram, cfg.controller) == (eight.dram, eight.controller)
        assert cfg.instruction_limit == TINY.multi_core_instructions


class TestSpecBuilders:
    def test_workload_spec_normalises_engine_and_scale(self):
        spec = workload_spec("hmmer", "chargecache", TINY)
        assert spec.kind == "single"
        assert spec.engine in ("event", "dense")  # concrete, never None
        assert spec.scale == TINY

    def test_default_scale_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        spec = workload_spec("hmmer")
        assert spec.scale == current_scale()

    def test_mix_and_alone_kinds(self):
        assert mix_spec("w1", scale=TINY).kind == "eight"
        alone = alone_spec("hmmer", TINY)
        assert alone.kind == "alone"
        assert alone.mechanism == "none"

    def test_platform_row_policy_is_the_default_spelling(self):
        for name in ("hmmer", "mcf"):
            assert workload_spec(name, "none", row_policy="open") == \
                workload_spec(name, "none")
        assert mix_spec("w1", "none", row_policy="closed") == \
            mix_spec("w1", "none")
        assert workload_spec("mcf", row_policy="closed").row_policy == \
            "closed"

    @pytest.mark.parametrize("fields", [
        {"mechanism": "chargecache"}, {"mechanism": "nuat"},
        {"cc_entries": 256}, {"idle_finished": True},
        {"enable_rltl": True}])
    def test_alone_spec_rejects_what_it_would_ignore(self, fields):
        with pytest.raises(ValueError, match="alone runs|chargecache term"):
            RunSpec(kind="alone", name="mcf", **fields)

    @pytest.mark.parametrize("mechanism,fields", [
        ("nuat", {"cc_entries": 64}), ("none", {"cc_unbounded": True}),
        ("lldram", {"cc_entries": 64}), ("nuat", {"cc_duration_ms": 4.0}),
        ("aldram", {"cc_duration_ms": 1.0}),
        ("lldram", {"cc_duration_ms": 4.0})])
    def test_shorthand_no_term_reads_is_rejected(self, mechanism, fields):
        """A cc_* field without a term that reads it would key its own
        run of the same simulation as the bare spec."""
        with pytest.raises(ValueError, match="term"):
            RunSpec(kind="single", name="mcf", mechanism=mechanism,
                    **fields)
        with pytest.raises(ValueError, match="term"):
            workload_spec("mcf", mechanism, **fields)

    def test_shorthand_a_term_reads_is_kept(self):
        assert workload_spec("mcf", "nuat+chargecache", cc_entries=64) \
            .cc_entries == 64
        # An LL-DRAM duration has one spelling: inline.
        assert workload_spec("mcf", "lldram(duration_ms=4)").mechanism \
            == "lldram(caching_duration_ms=4.0)"

    def test_spec_may_not_write_the_scale_time_scale(self):
        """build_config writes scale.cc_time_scale; an inline value,
        even the default, would be overwritten or win silently."""
        for spec in ("chargecache(time_scale=1)",
                     "chargecache(entries=64,time_scale=2)+nuat"):
            with pytest.raises(ValueError, match="time_scale"):
                RunSpec(kind="single", name="mcf", mechanism=spec)
            with pytest.raises(ValueError, match="time_scale"):
                build_config("single", spec, TINY)
        assert build_config("single", "chargecache", TINY).mechanism == \
            f"chargecache(time_scale={TINY.cc_time_scale!r})"


class TestCaching:
    def test_identical_runs_memoised(self):
        clear_caches()
        a = run_spec(workload_spec("hmmer", "none", TINY))
        b = run_spec(workload_spec("hmmer", "none", TINY))
        assert a is b  # same object: cache hit

    def test_different_mechanism_not_shared(self):
        clear_caches()
        a = run_spec(workload_spec("hmmer", "none", TINY))
        b = run_spec(workload_spec("hmmer", "chargecache", TINY))
        assert a is not b

    def test_clear_caches(self):
        a = run_spec(workload_spec("hmmer", "none", TINY))
        clear_caches()
        b = run_spec(workload_spec("hmmer", "none", TINY))
        assert a is not b
        # Determinism: the recomputed result matches.
        assert a.ipcs == b.ipcs

    def test_clear_caches_also_clears_disk_layer(self):
        """clear_caches must point the next run at an empty persistent
        layer too, or test isolation would silently read stale disk
        entries after the memo is dropped."""
        clear_caches()
        run_spec(workload_spec("hmmer", "none", TINY))
        clear_caches()
        _, source = run_spec_ex(workload_spec("hmmer", "none", TINY))
        assert source == "computed"  # neither memo nor disk survived

    def test_memo_clear_falls_through_to_disk(self):
        clear_caches()
        a = run_spec(workload_spec("hmmer", "none", TINY))
        clear_memo()
        b, source = run_spec_ex(workload_spec("hmmer", "none", TINY))
        if runner.active_disk_cache() is not None:
            assert source == "disk"
            assert b is not a  # restored object, not the memo entry
        assert b.ipcs == a.ipcs
        assert b.mem_cycles == a.mem_cycles


class TestExecution:
    def test_fields_validated_at_construction(self):
        with pytest.raises(ValueError, match="jobs"):
            runner.Execution(jobs=-1)
        with pytest.raises(ValueError, match="unknown engine"):
            runner.Execution(engine="warp")

    def test_executing_restores_even_on_error(self):
        before = runner.execution
        with pytest.raises(RuntimeError):
            with runner.executing(engine="dense", jobs=2):
                assert workload_spec("mcf").engine == "dense"
                runner.set_execution(runner.Execution())
                raise RuntimeError
        assert runner.execution is before

    def test_store_reopened_only_when_its_binding_changes(self, tmp_path):
        with runner.executing(cache_dir=str(tmp_path / "a")):
            store = runner.active_disk_cache()
            with runner.executing(jobs=3, engine="dense"):
                assert runner.active_disk_cache() is store
            with runner.executing(cache_dir=str(tmp_path / "b")):
                assert runner.active_disk_cache().root \
                    == str(tmp_path / "b")
            assert runner.active_disk_cache().root == store.root
