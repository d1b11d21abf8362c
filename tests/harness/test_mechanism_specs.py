"""End-to-end tests for parameterized mechanism specs in the harness.

Acceptance contract of the registry redesign: a
``"chargecache(entries=256)+nuat"``-style spec runs end-to-end, lands
on the same RunResult as the equivalent hand-built configuration, and
order-permuted compositions share one cache key.
"""

import pytest

from repro.core import registry
from repro.core.chargecache import chargecache_params
from repro.dram.timing import DDR3_1600
from repro.harness import cli, runner
from repro.harness.cache import cache_key
from repro.harness.runner import (
    Scale,
    build_config,
    clear_memo,
    run_spec,
    run_spec_ex,
    scenario_spec,
    workload_spec,
)
from repro.harness.spec import RunSpec
from tests.helpers import default_context

TINY = Scale(single_core_instructions=2000, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)


class TestSpecNormalization:
    def test_parameterized_spec_equals_handbuilt_spec(self):
        inline = workload_spec("libquantum",
                               "nuat+chargecache(entries=256)", TINY)
        handbuilt = workload_spec("libquantum", "chargecache+nuat", TINY,
                                  cc_entries=256)
        assert inline == handbuilt
        assert cache_key(inline) == cache_key(handbuilt)

    def test_order_permuted_compositions_share_one_key(self):
        keys = {cache_key(workload_spec("mcf", spec, TINY))
                for spec in ("chargecache+nuat", "nuat+chargecache")}
        assert len(keys) == 1

    def test_direct_runspec_normalizes_at_key_time(self):
        """Specs built around the sanctioned constructors still hash
        canonically (memo identity differs, disk identity must not)."""
        direct = RunSpec(kind="single", name="mcf",
                         mechanism="nuat+chargecache(entries=256)",
                         scale=TINY)
        sanctioned = workload_spec("mcf", "chargecache+nuat", TINY,
                                   cc_entries=256)
        assert cache_key(direct) == cache_key(sanctioned)

    def test_default_valued_params_join_the_plain_key(self):
        assert cache_key(workload_spec(
            "mcf", "chargecache(entries=128,duration_ms=1.0)", TINY)) == \
            cache_key(workload_spec("mcf", "chargecache", TINY))

    def test_runspec_rejects_bad_mechanism_eagerly(self):
        with pytest.raises(ValueError):
            RunSpec(kind="single", name="mcf", mechanism="warp", scale=TINY)
        with pytest.raises(ValueError):
            workload_spec("mcf", "chargecache(entries=-4)", TINY)

    def test_conflicting_shorthand_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            workload_spec("mcf", "chargecache(entries=256)", TINY,
                          cc_entries=64)


class TestEndToEnd:
    def test_spec_string_run_is_the_handbuilt_run(self):
        """Same RunResult object: one memo entry serves both
        spellings; counters of a recompute match bit-for-bit."""
        clear_memo()
        via_spec = run_spec(workload_spec(
            "libquantum", "chargecache(entries=256)+nuat", TINY))
        via_kwargs, source = run_spec_ex(workload_spec(
            "libquantum", "nuat+chargecache", TINY, cc_entries=256))
        assert source == "memory"
        assert via_kwargs is via_spec
        # And an independent recompute (memo dropped) is bit-identical.
        clear_memo()
        recomputed = run_spec(workload_spec(
            "libquantum", "nuat+chargecache", TINY, cc_entries=256))
        assert recomputed.ipcs == via_spec.ipcs
        assert recomputed.mem_cycles == via_spec.mem_cycles
        assert recomputed.mechanism_hits == via_spec.mechanism_hits
        assert recomputed.config == via_spec.config

    def test_build_config_accepts_inline_params(self):
        via_spec = build_config("single", "chargecache(entries=256)+nuat",
                                TINY)
        via_kwargs = runner._spec_config(workload_spec(
            "mcf", "chargecache+nuat", TINY, cc_entries=256))
        assert via_spec == via_kwargs
        # The folded capacity and the scale's time-scale are written
        # back inline: the spec is the mechanism's one input.
        assert via_spec.mechanism == \
            f"chargecache(entries=256,time_scale={TINY.cc_time_scale!r})+nuat"

    def test_build_config_inline_duration_derives_reductions(self):
        via_spec = build_config("single", "chargecache(duration_ms=16)",
                                TINY)
        via_kwargs = runner._spec_config(workload_spec(
            "mcf", "chargecache", TINY, cc_duration_ms=16.0))
        assert via_spec == via_kwargs
        assert chargecache_params(via_spec.mechanism) \
            .caching_duration_ms == 16.0
        mech = registry.build(via_spec.mechanism,
                              default_context())
        assert mech.hit_timings.trcd > DDR3_1600.tRCD - 4

    def test_coupled_inline_params_run_through_the_harness(self):
        """entries=3 is only valid with associativity=3 (it fails the
        registered associativity=2); the pair must survive the
        shorthand fold as one inline unit and reach the built
        mechanism (regression: the fold used to split the pair and
        falsely reject it)."""
        clear_memo()
        result = run_spec(workload_spec(
            "libquantum", "chargecache(entries=3,associativity=3)",
            TINY))
        assert result.config.mechanism == \
            "chargecache(associativity=3,entries=3," \
            f"time_scale={TINY.cc_time_scale!r})"

    def test_scenario_build_config_accepts_inline_params(self):
        via_spec = build_config("c8-r2", "chargecache(entries=64)", TINY)
        via_kwargs = runner._spec_config(scenario_spec(
            "c8-r2", "w1", "chargecache", TINY, cc_entries=64))
        assert via_spec == via_kwargs
        assert chargecache_params(via_spec.mechanism).entries == 64

    def test_residual_inline_params_flow_to_the_mechanism(self):
        """Parameters without a RunSpec shorthand (e.g. sharing) stay
        inline in the config's mechanism string and reach the built
        mechanism through the registry."""
        clear_memo()
        result = run_spec(workload_spec(
            "libquantum", "chargecache(sharing=shared)", TINY))
        assert result.config.mechanism == \
            f"chargecache(sharing=shared,time_scale={TINY.cc_time_scale!r})"
        from repro.core import registry
        from repro.dram.refresh import RefreshScheduler
        mech = registry.build(
            result.config.mechanism,
            registry.MechanismContext(
                timing=DDR3_1600, num_cores=1,
                refresh_scheduler=RefreshScheduler(DDR3_1600, 1, 64 * 1024)))
        assert mech.config.sharing == "shared"


class TestCLIMechanisms:
    @pytest.fixture(autouse=True)
    def _harness_state(self):
        """Restore the execution ``cli.main`` installs so the
        session-wide tmp cache stays bound for later tests."""
        with runner.executing():
            yield
        runner.clear_memo()

    def test_parser_accepts_mechanism_specs(self):
        args = cli.build_parser().parse_args(
            ["fig7a", "--mechanisms", "chargecache(entries=256)+nuat"])
        assert args.mechanisms == ["chargecache(entries=256)+nuat"]

    def test_main_rejects_bad_mechanism_spec(self, capsys):
        """A bad spec exits with an argparse-style error (usage + the
        parse failure), not a raw traceback."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig7a", "--mechanisms", "warpdrive"])
        assert excinfo.value.code == 2
        assert "warpdrive" in capsys.readouterr().err

    def test_empty_mechanisms_flag_rejected(self):
        """`--mechanisms` with no specs must error out, not silently
        render a baseline-only figure."""
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fig7a", "--mechanisms"])

    def test_fig7_runs_parameterized_specs_from_the_cli(self, capsys,
                                                       monkeypatch,
                                                       tmp_path):
        """A parameterized composition runs end-to-end through the real
        CLI entry point and lands on the same cached run as the
        order-permuted spelling.  The run is bound to a temporary store,
        so the user's default store (under ``$XDG_CACHE_HOME``) stays
        untouched."""
        monkeypatch.setenv("REPRO_SCALE", "0.001")  # floors at 1000 inst
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        xdg = tmp_path / "xdg"
        xdg.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        store = tmp_path / "store"
        runner.clear_memo()
        assert cli.main(["fig7a", "--workloads", "libquantum",
                         "--mechanisms", "chargecache(entries=256)+nuat",
                         "--progress", "--store", str(store)]) == 0
        capsys.readouterr()
        assert list(xdg.iterdir()) == []
        assert any(store.iterdir())
        # The permuted spelling is served from the memo: zero computes.
        from repro.harness import experiments
        result = experiments.run(
            "fig7a", ["libquantum"], runner.current_scale(),
            mechanisms=("nuat+chargecache(entries=256)",))
        assert result["cache"]["computed"] == 0
        row = result["rows"][0]
        assert "nuat+chargecache(entries=256)" in row

    def test_all_shared_pool_prefetches_custom_mechanisms(self):
        """`all --mechanisms SPEC` must hand the custom specs to the
        shared pool: the declared fig7 sweep swaps the default
        mechanism set for the custom one instead of simulating runs
        nobody will report."""
        from repro.harness import experiments
        specs = experiments.declared_specs(
            ("fig7a",), ["libquantum"], TINY,
            mechanisms=("chargecache(entries=256)+nuat",))
        mechanisms = {spec.mechanism for spec in specs}
        entries = {spec.cc_entries for spec in specs}
        assert mechanisms == {"none", "chargecache+nuat"}
        assert entries == {None, 256}
        assert not any(spec.mechanism == "lldram" for spec in specs)
