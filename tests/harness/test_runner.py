"""Tests for the harness run manager."""

import pytest

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

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert current_scale().single_core_instructions == \
            2 * Scale().single_core_instructions

    def test_env_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert current_scale().single_core_instructions == \
            8 * Scale().single_core_instructions


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
        cfg1 = build_config("single", "chargecache", TINY,
                            cc_duration_ms=1.0)
        cfg16 = build_config("single", "chargecache", TINY,
                             cc_duration_ms=16.0)
        assert cfg1.chargecache.trcd_reduction_cycles == 4
        assert cfg16.chargecache.trcd_reduction_cycles < 4

    def test_capacity_override(self):
        cfg = build_config("single", "chargecache", TINY, cc_entries=512)
        assert cfg.chargecache.entries == 512

    def test_row_policy_override(self):
        cfg = build_config("single", "none", TINY, row_policy="closed")
        assert cfg.controller.row_policy == "closed"

    @pytest.mark.parametrize("knobs", [
        {}, {"cc_entries": 512}, {"cc_duration_ms": 16.0},
        {"cc_unbounded": True}, {"row_policy": "closed"}])
    @pytest.mark.parametrize("mechanism", [
        "none", "chargecache", "nuat", "lldram", "chargecache+nuat"])
    def test_paper_kinds_are_their_scenarios(self, mechanism, knobs):
        for kind, scen in (("single", "c1-r1"), ("eight", "c8-r1")):
            assert build_config(kind, mechanism, TINY, **knobs) == \
                build_config(scen, mechanism, TINY, **knobs)

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
        {"cc_entries": 256}, {"idle_finished": True}])
    def test_alone_spec_rejects_what_it_would_ignore(self, fields):
        with pytest.raises(ValueError, match="alone runs"):
            RunSpec(kind="alone", name="mcf", **fields)


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
        assert runner.Execution(calibration_traces=["a"]) \
            .calibration_traces == ("a",)

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
