"""Integration tests for system configuration variants: channel
counts, queue pressure and probe combinations.
"""

from dataclasses import replace

from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, stream_trace

from tests.conftest import tiny_config
from tests.helpers import check_command_log


def build_system(cfg, pattern="random", seed=1, **system_kwargs):
    org = Organization.from_config(cfg.dram)
    traces = []
    for core in range(cfg.processor.num_cores):
        if pattern == "stream":
            traces.append(stream_trace(org, 1 << 21, 8.0, seed + core,
                                       num_streams=2, write_fraction=0.2))
        else:
            traces.append(random_trace(org, 1 << 22, 8.0, seed + core,
                                       write_fraction=0.2))
    return System(cfg, traces, **system_kwargs)


class TestMultiChannel:
    def test_two_channels_share_load(self):
        cfg = tiny_config(num_cores=2, channels=2, row_policy="closed",
                          instruction_limit=4000)
        system = build_system(cfg)
        result = system.run(max_mem_cycles=600_000)
        assert not result.truncated
        reads = [c.stats.reads for c in system.controllers]
        assert all(r > 0 for r in reads), "both channels used"
        # RoBaRaCoCh interleaves lines across channels: near balance.
        assert min(reads) > 0.3 * max(reads)

    def test_two_channel_command_streams_legal(self):
        cfg = tiny_config(num_cores=2, channels=2, row_policy="closed",
                          instruction_limit=3000)
        system = build_system(cfg, log_commands=True)
        system.run(max_mem_cycles=600_000)
        for controller in system.controllers:
            check_command_log(controller.channel.command_log,
                              system.timing)

    def test_chargecache_per_channel_tables(self):
        cfg = tiny_config(mechanism="chargecache", num_cores=2,
                          channels=2, row_policy="closed",
                          instruction_limit=3000)
        system = build_system(cfg, pattern="stream")
        result = system.run(max_mem_cycles=600_000)
        lookups = [c.mechanism.lookups for c in system.controllers]
        assert all(n > 0 for n in lookups)
        assert result.mechanism_lookups == sum(lookups)


class TestQueuePressure:
    def test_tiny_queues_still_drain(self):
        cfg = tiny_config(instruction_limit=2500)
        cfg = replace(cfg, controller=replace(cfg.controller,
                                              read_queue_size=4,
                                              write_queue_size=4))
        system = build_system(cfg)
        result = system.run(max_mem_cycles=900_000)
        assert not result.truncated
        assert result.reads > 0

    def test_heavy_write_stream_drains(self):
        cfg = tiny_config(instruction_limit=2500)
        org = Organization.from_config(cfg.dram)
        system = System(cfg, [stream_trace(org, 1 << 21, 4.0, seed=1,
                                           num_streams=2,
                                           write_fraction=0.9)])
        result = system.run(max_mem_cycles=900_000)
        assert not result.truncated
        assert result.writes > 0


class TestIdleFinishedMode:
    def test_fixed_work_mode_caps_instructions(self):
        cfg = tiny_config(num_cores=2, channels=1, row_policy="closed",
                          instruction_limit=2000)
        cfg = replace(cfg, idle_finished_cores=True)
        system = build_system(cfg)
        result = system.run(max_mem_cycles=900_000)
        # Nobody executes (much) past the limit; small overshoot is the
        # in-flight window at the finish instant.
        assert result.work_instructions <= 2 * 2000 + 2 * 128

    def test_loop_mode_exceeds_limit(self):
        cfg = tiny_config(num_cores=2, channels=1, row_policy="closed",
                          instruction_limit=2000)
        system = build_system(cfg)
        result = system.run(max_mem_cycles=900_000)
        assert result.work_instructions >= 2 * 2000
