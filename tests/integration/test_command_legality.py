"""Integration: every command stream the simulator emits must satisfy
the full constraint set of its timing grade, re-checked by an
independent verifier (tests/helpers.py).
"""

import pytest

from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.dram.standards import derated_reduction_cycles
from repro.harness.runner import build_config
from repro.harness.spec import Scale
from repro.workloads.mixes import make_mix_traces, mix_composition
from repro.workloads.synthetic import random_trace, stream_trace, zipf_trace

from tests.conftest import tiny_config
from tests.helpers import check_command_log


def run_logged(mechanism, pattern, num_cores=1, row_policy="open",
               limit=4000, channels=1, seed_base=0, standard="DDR3-1600"):
    cfg = tiny_config(mechanism=mechanism, num_cores=num_cores,
                      channels=channels, standard=standard,
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


def _check_on_own_grade(system) -> int:
    """Check every channel's log against the system's timing grade.

    No mechanism reduces an ACT below what Table 2 grants its shortest
    (1 ms) caching duration, re-expressed in the grade's bus clock.
    """
    timing = system.timing
    trcd_reduction, tras_reduction = derated_reduction_cycles(timing, 1.0)
    return sum(check_command_log(controller.channel.command_log, timing,
                                 reduced_trcd=timing.tRCD - trcd_reduction,
                                 reduced_tras=timing.tRAS - tras_reduction)
               for controller in system.controllers)


@pytest.mark.parametrize("standard", ("DDR4-2400", "LPDDR3-1600"))
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("pattern", ("stream", "random", "zipf"))
def test_single_core_command_stream_legal_on_every_standard(
        mechanism, pattern, standard):
    system, _ = run_logged(mechanism, pattern, standard=standard)
    assert system.timing.name == standard
    assert _check_on_own_grade(system) > 100


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("name", ("c1-r1", "c8-r1"))
def test_paper_platform_command_stream_legal(name, mechanism):
    """Table 1's two systems as the figures build them: one core on one
    open-row channel, and eight cores on two closed-row channels, each
    running its share of mix w1."""
    scale = Scale(single_core_instructions=2500,
                  multi_core_instructions=900,
                  warmup_cpu_cycles=1000, max_mem_cycles=500_000)
    cfg = build_config(name, mechanism, scale)
    org = Organization.from_config(cfg.dram)
    apps = mix_composition("w1")[:cfg.processor.num_cores]
    system = System(cfg, make_mix_traces(apps, org), log_commands=True)
    result = system.run(max_mem_cycles=scale.max_mem_cycles)
    assert not result.truncated
    assert all(controller.channel.command_log
               for controller in system.controllers)
    assert _check_on_own_grade(system) > 100


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


def test_reduced_acts_only_under_mechanisms():
    system, _ = run_logged("none", "stream")
    for controller in system.controllers:
        assert not any(c.reduced for c in controller.channel.command_log)
    system, _ = run_logged("lldram", "stream")
    from repro.dram.commands import Command
    acts = [c for c in system.controllers[0].channel.command_log
            if c.command is Command.ACT]
    assert acts and all(c.reduced for c in acts)
