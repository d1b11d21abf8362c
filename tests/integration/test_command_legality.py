"""Integration: every command stream the simulator emits must satisfy
the full DDR3 constraint set, re-checked by an independent verifier
(tests/helpers.py).
"""

import pytest

from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, stream_trace, zipf_trace

from tests.conftest import tiny_config
from tests.helpers import check_command_log


def run_logged(mechanism, pattern, num_cores=1, row_policy="open",
               limit=4000, ranks=1, channels=1, seed_base=0):
    cfg = tiny_config(mechanism=mechanism, num_cores=num_cores,
                      channels=channels, ranks=ranks,
                      instruction_limit=limit, row_policy=row_policy)
    org = Organization.from_config(cfg.dram)
    traces = []
    for core in range(num_cores):
        seed = seed_base + core + 1
        if pattern == "stream":
            traces.append(stream_trace(org, 1 << 21, 8.0, seed,
                                       num_streams=2, write_fraction=0.3))
        elif pattern == "zipf":
            traces.append(zipf_trace(org, 1 << 22, 8.0, seed, alpha=1.3,
                                     write_fraction=0.2))
        else:
            traces.append(random_trace(org, 1 << 22, 8.0, seed,
                                       write_fraction=0.2))
    system = System(cfg, traces, log_commands=True)
    result = system.run(max_mem_cycles=600_000)
    return system, result


MECHANISMS = ("none", "chargecache", "nuat", "chargecache+nuat", "lldram")


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("pattern", ("stream", "random", "zipf"))
def test_single_core_command_stream_legal(mechanism, pattern):
    system, result = run_logged(mechanism, pattern)
    total = 0
    for controller in system.controllers:
        total += check_command_log(controller.channel.command_log,
                                   system.timing)
    assert total > 100  # the run actually exercised DRAM


@pytest.mark.parametrize("mechanism", ("none", "chargecache"))
def test_multi_core_closed_row_command_stream_legal(mechanism):
    system, result = run_logged(mechanism, "random", num_cores=2,
                                row_policy="closed", limit=2500)
    for controller in system.controllers:
        check_command_log(controller.channel.command_log, system.timing)


def test_refresh_commands_present_and_legal():
    cfg = tiny_config(instruction_limit=30_000)
    org = Organization.from_config(cfg.dram)
    system = System(cfg, [random_trace(org, 1 << 22, 30.0, 1)],
                    log_commands=True)
    result = system.run(max_mem_cycles=900_000)
    log = system.controllers[0].channel.command_log
    from repro.dram.commands import Command
    refs = [c for c in log if c.command is Command.REF]
    if result.mem_cycles > 2 * system.timing.tREFI:
        assert refs, "expected refreshes on a long run"
    check_command_log(log, system.timing)


class TestMultiRankLegality:
    """Per-rank tFAW/tRRD/tRFC and cross-rank interleaving on channels
    with ranks_per_channel > 1 (previously untested axis), driven by
    randomized synthetic workloads with fixed seeds."""

    @pytest.mark.parametrize("mechanism", ("none", "chargecache"))
    @pytest.mark.parametrize("seed_base", (0, 100, 2016))
    def test_two_rank_random_streams_legal(self, mechanism, seed_base):
        system, result = run_logged(mechanism, "random", num_cores=2,
                                    ranks=2, limit=3000,
                                    seed_base=seed_base)
        from repro.dram.commands import Command
        for controller in system.controllers:
            log = controller.channel.command_log
            check_command_log(log, system.timing)
            # Both ranks were genuinely exercised and interleaved.
            act_ranks = {c.rank for c in log if c.command is Command.ACT}
            assert act_ranks == {0, 1}, (
                f"expected ACTs on both ranks, saw {act_ranks}")

    @pytest.mark.parametrize("pattern", ("stream", "zipf"))
    def test_two_rank_two_channel_closed_row_legal(self, pattern):
        system, result = run_logged("chargecache", pattern, num_cores=4,
                                    ranks=2, channels=2,
                                    row_policy="closed", limit=2000)
        total = 0
        for controller in system.controllers:
            total += check_command_log(controller.channel.command_log,
                                       system.timing)
        assert total > 100

    def test_refreshes_cover_every_rank(self):
        """One REF stream per rank: the refresh scheduler must pace and
        the controller must issue refreshes for rank 1, not just rank
        0, on a multi-rank channel."""
        cfg = tiny_config(instruction_limit=30_000, ranks=2)
        org = Organization.from_config(cfg.dram)
        system = System(cfg, [random_trace(org, 1 << 22, 30.0, 1)],
                        log_commands=True)
        result = system.run(max_mem_cycles=900_000)
        from repro.dram.commands import Command
        log = system.controllers[0].channel.command_log
        check_command_log(log, system.timing)
        if result.mem_cycles > 2 * system.timing.tREFI:
            ref_ranks = {c.rank for c in log if c.command is Command.REF}
            assert ref_ranks == {0, 1}

    def test_checker_catches_cross_rank_gap_violation(self):
        """The extended checker itself must reject a column command
        that hops ranks without the tRTRS gap (meta-test: the new rule
        actually bites)."""
        from repro.dram.commands import Command, IssuedCommand
        from repro.dram.timing import DDR3_1600
        from tests.helpers import CommandLogViolation

        t = DDR3_1600
        log = [
            IssuedCommand(Command.ACT, 0, 0, 0, 0, 5),
            IssuedCommand(Command.ACT, t.tRRD, 0, 1, 0, 9),
            IssuedCommand(Command.RD, t.tRCD + t.tRRD, 0, 0, 0),
            # Same-rank spacing (tCCD) satisfied, but the rank hop
            # needs tCCD + tRTRS.
            IssuedCommand(Command.RD, t.tRCD + t.tRRD + t.tCCD,
                          0, 1, 0),
        ]
        with pytest.raises(CommandLogViolation, match="tRTRS"):
            check_command_log(log, t)


def test_reduced_acts_only_under_mechanisms():
    system, _ = run_logged("none", "stream")
    for controller in system.controllers:
        assert not any(c.reduced for c in controller.channel.command_log)
    system, _ = run_logged("lldram", "stream")
    from repro.dram.commands import Command
    acts = [c for c in system.controllers[0].channel.command_log
            if c.command is Command.ACT]
    assert acts and all(c.reduced for c in acts)
