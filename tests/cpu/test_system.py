"""End-to-end tests for the System runner on tiny configurations."""

import pytest

from repro.config import RANKS_PER_CHANNEL
from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, stream_trace

from tests.conftest import tiny_config


def small_system(mechanism="none", num_cores=1, pattern="stream",
                 **cfg_kwargs):
    cfg = tiny_config(mechanism=mechanism, num_cores=num_cores,
                      **cfg_kwargs)
    org = Organization.from_config(cfg.dram)
    traces = []
    for core in range(num_cores):
        if pattern == "stream":
            traces.append(stream_trace(org, 1 << 20, 10.0, seed=core + 1,
                                       num_streams=2))
        else:
            traces.append(random_trace(org, 1 << 21, 10.0, seed=core + 1))
    return System(cfg, traces)


class TestBasicRuns:
    def test_single_core_completes(self):
        result = small_system().run(max_mem_cycles=400_000)
        assert not result.truncated
        assert result.instructions[0] == 3000
        assert 0 < result.total_ipc <= 3.0

    def test_generates_dram_traffic(self):
        result = small_system(pattern="random").run(max_mem_cycles=400_000)
        assert result.activations > 0
        assert result.reads > 0

    def test_refreshes_happen_on_long_runs(self):
        result = small_system(instruction_limit=40_000).run(
            max_mem_cycles=800_000)
        if result.mem_cycles > 6300:
            assert result.refreshes > 0

    def test_multi_core_run(self):
        result = small_system(num_cores=2, pattern="random",
                              row_policy="closed").run(
            max_mem_cycles=800_000)
        assert len(result.ipcs) == 2
        assert all(ipc > 0 for ipc in result.ipcs)

    def test_truncation_flag(self):
        result = small_system(instruction_limit=10 ** 7).run(
            max_mem_cycles=2_000)
        assert result.truncated


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = small_system(pattern="random").run(max_mem_cycles=400_000)
        b = small_system(pattern="random").run(max_mem_cycles=400_000)
        assert a.ipcs == b.ipcs
        assert a.activations == b.activations
        assert a.mem_cycles == b.mem_cycles


class TestMechanisms:
    def test_chargecache_reduces_activation_latency(self):
        base = small_system("none", pattern="random").run(
            max_mem_cycles=400_000)
        cc = small_system("chargecache", pattern="random").run(
            max_mem_cycles=400_000)
        assert cc.mechanism_lookups > 0
        # ChargeCache never hurts: IPC within noise or better.
        assert cc.total_ipc >= base.total_ipc * 0.995

    def test_lldram_is_upper_bound(self):
        cc = small_system("chargecache", pattern="random").run(
            max_mem_cycles=400_000)
        ll = small_system("lldram", pattern="random").run(
            max_mem_cycles=400_000)
        assert ll.mechanism_hit_rate == 1.0
        assert ll.total_ipc >= cc.total_ipc * 0.99

    def test_act_reduced_counts_match_mechanism_hits(self):
        cc = small_system("chargecache", pattern="stream").run(
            max_mem_cycles=400_000)
        assert cc.act_reduced == cc.mechanism_hits


class TestAccountingInvariants:
    def test_rank_active_bounded_by_runtime(self):
        result = small_system(pattern="random").run(max_mem_cycles=400_000)
        ranks = result.config.dram.channels * RANKS_PER_CHANNEL
        assert 0 <= result.rank_active_cycles <= ranks * result.mem_cycles

    def test_reads_and_writes_non_negative(self):
        result = small_system(pattern="random").run(max_mem_cycles=400_000)
        assert result.reads >= 0 and result.writes >= 0
        assert result.activations <= result.reads + result.writes + 1

    def test_trace_count_mismatch_rejected(self):
        cfg = tiny_config(num_cores=2)
        org = Organization.from_config(cfg.dram)
        with pytest.raises(ValueError):
            System(cfg, [stream_trace(org, 1 << 20, 10.0, seed=1)])


class TestRLTLProbeIntegration:
    def test_probe_counts_activations(self):
        cfg = tiny_config(mechanism="none", instruction_limit=3000)
        org = Organization.from_config(cfg.dram)
        system = System(cfg, [random_trace(org, 1 << 21, 10.0, seed=3)],
                        enable_rltl=True, rltl_time_scale=512.0)
        result = system.run(max_mem_cycles=400_000)
        assert result.rltl is not None
        assert result.rltl.activations == result.activations
