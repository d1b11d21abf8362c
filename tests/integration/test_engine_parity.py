"""Golden parity: the event engine must be bit-identical to dense.

The event engine (``SimulationConfig.engine="event"``) skips cycles it
can prove are no-ops.  These tests assert that on representative
single-core and eight-core workloads, under every latency mechanism,
every counter field of the :class:`RunResult` matches the dense
tick-per-cycle reference exactly - not approximately.  Any divergence
means a wake-up bound overestimated (an action cycle was skipped) and
is a correctness bug, not noise.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.controller.controller import MemoryController
from repro.core.hcrac import HCRAC
from repro.cpu.system import RunResult, System
from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, stream_trace, zipf_trace

from tests.conftest import tiny_config

#: Every RunResult field that must match bit-for-bit.
PARITY_FIELDS = (
    "mem_cycles", "cpu_cycles", "instructions", "core_cycles", "ipcs",
    "llc_hit_rate", "llc_load_misses", "activations", "act_reduced",
    "reads", "writes", "refreshes", "row_hit_rate",
    "average_read_latency_cycles", "mechanism_lookups", "mechanism_hits",
    "active_bank_cycles", "rank_active_cycles", "work_instructions",
    "truncated",
)

MECHANISMS = ("none", "chargecache", "nuat", "lldram")


def _traces(cfg, pattern: str):
    org = Organization.from_config(cfg.dram)
    traces = []
    for core in range(cfg.processor.num_cores):
        seed = core + 1
        if pattern == "stream":
            traces.append(stream_trace(org, 1 << 20, 10.0, seed=seed,
                                       num_streams=2))
        elif pattern == "zipf":
            traces.append(zipf_trace(org, 1 << 21, 6.0, seed=seed,
                                     write_fraction=0.2))
        else:
            traces.append(random_trace(org, 1 << 21, 8.0, seed=seed,
                                       write_fraction=0.25))
    return traces


def _run(cfg, pattern: str, max_mem_cycles: int = 600_000) -> RunResult:
    system = System(cfg, _traces(cfg, pattern))
    return system.run(max_mem_cycles=max_mem_cycles)


def assert_parity(cfg, pattern: str, max_mem_cycles: int = 600_000):
    dense = _run(replace(cfg, engine="dense"), pattern, max_mem_cycles)
    event = _run(replace(cfg, engine="event"), pattern, max_mem_cycles)
    for field in PARITY_FIELDS:
        assert getattr(event, field) == getattr(dense, field), (
            f"engine divergence on {field!r}: "
            f"event={getattr(event, field)!r} dense={getattr(dense, field)!r}")
    return dense, event


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_single_core_parity(mechanism):
    cfg = tiny_config(mechanism=mechanism, instruction_limit=3000)
    assert_parity(cfg, "random")


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_eight_core_parity(mechanism):
    cfg = tiny_config(mechanism=mechanism, num_cores=8, channels=2,
                      row_policy="closed", instruction_limit=1200,
                      warmup=2000)
    assert_parity(cfg, "zipf")


def test_streaming_parity_with_writes_and_drains():
    cfg = tiny_config(mechanism="chargecache", instruction_limit=4000)
    assert_parity(cfg, "stream")


def test_truncated_run_parity():
    cfg = tiny_config(instruction_limit=10 ** 7)
    assert_parity(cfg, "random", max_mem_cycles=3_000)


def test_eight_core_truncated_on_controller_only_cycle(monkeypatch):
    """A ``max_mem_cycles`` stop on a cycle where only a controller is
    due must still be a full visit: the cores' cycle counts are read
    at the stop.  The stop is a controller-only visit of the untruncated
    event run (a cycle some controller ticked at without ``_step``)."""
    cfg = tiny_config(mechanism="chargecache", num_cores=8, channels=2,
                      row_policy="closed", instruction_limit=1200,
                      warmup=2000)
    stepped, ticked = set(), set()
    step, tick = System._step, MemoryController.tick

    def recording_step(self, mem, controllers, *args):
        stepped.add(mem)
        return step(self, mem, controllers, *args)

    def recording_tick(self, cycle):
        ticked.add(cycle)
        return tick(self, cycle)

    with monkeypatch.context() as patch:
        patch.setattr(System, "_step", recording_step)
        patch.setattr(MemoryController, "tick", recording_tick)
        _run(replace(cfg, engine="event"), "zipf")
    controller_only = sorted(ticked - stepped)
    assert controller_only
    stop = controller_only[len(controller_only) // 2]
    dense, event = assert_parity(cfg, "zipf", max_mem_cycles=stop)
    assert event.truncated and dense.truncated


def test_tiny_queue_retry_pressure_parity():
    """Tiny queues keep the LLC retry lists populated, exercising the
    dense-mirroring per-cycle stepping for parked requests (including
    the parked-read-forwards-from-new-store path)."""
    from repro.config import ControllerConfig

    cfg = tiny_config(instruction_limit=4000)
    cfg = replace(cfg, controller=ControllerConfig(read_queue_size=2,
                                                   write_queue_size=2))
    assert_parity(cfg, "random", max_mem_cycles=900_000)


def _idle_gap_traces(cfg, idle_bubbles: int):
    """Per core, six bursts of the same 60 zipf accesses, each followed
    by ``idle_bubbles`` instructions that touch no memory."""
    org = Organization.from_config(cfg.dram)
    traces = []
    for core in range(cfg.processor.num_cores):
        burst = list(itertools.islice(
            zipf_trace(org, 1 << 20, 4.0, seed=core + 1,
                       write_fraction=0.2), 60))
        idle = TraceRecord(idle_bubbles, burst[0].line_address, False)
        traces.append(iter((burst + [idle]) * 6))
    return traces


@pytest.mark.parametrize("sharing", ("per-core", "shared"))
def test_chargecache_idle_gaps_longer_than_a_sweep_parity(monkeypatch,
                                                          sharing):
    """ChargeCache catches its IIC/EC sweep up only at ACT and PRE.
    After an idle stretch longer than one full sweep, both engines
    catch up through ``PeriodicInvalidator.advance_to``'s
    ``wraps >= entries`` path, which clears a table at once; it must
    leave every result as the dense engine's.  The test checks that
    both runs take that path on tables that still hold entries."""
    cleared = {}
    clear = HCRAC.clear

    def counted_clear(self):
        if len(self):
            cleared[engine] = cleared.get(engine, 0) + 1
        clear(self)

    monkeypatch.setattr(HCRAC, "clear", counted_clear)
    cfg = tiny_config("chargecache", num_cores=2, sharing=sharing,
                      instruction_limit=200_000, warmup=1000)
    results = {}
    for engine in ("dense", "event"):
        system = System(replace(cfg, engine=engine),
                        _idle_gap_traces(cfg, idle_bubbles=40_000))
        results[engine] = system.run(max_mem_cycles=600_000)
    for field in PARITY_FIELDS:
        assert getattr(results["event"], field) == \
            getattr(results["dense"], field), field
    assert cleared["event"] == cleared["dense"] > 0
    assert results["event"].mechanism_hits > 0


def test_event_engine_is_default():
    cfg = tiny_config()
    assert cfg.engine == "event"


# ----------------------------------------------------------------------
# Scenario-matrix parity: the wake-up bounds must stay exact on every
# scale-out axis (multi-core, multi-rank, each non-DDR3 timing grade),
# not just the paper's base platforms.
# ----------------------------------------------------------------------

#: Sampled grid: >=2 cores, 2 ranks/channel, and every non-DDR3 preset.
SCENARIO_PARITY_GRID = (
    ("c2-r2", "chargecache"),       # 2 cores, 2 ranks on one channel
    ("c4-r1", "none"),              # 4 cores, 2 channels
    ("c1-r2", "nuat"),              # multi-rank refresh-age interplay
    ("ddr4-2400-c1", "chargecache"),
    ("lpddr3-1600-c1", "chargecache"),   # 2x refresh cadence
    ("gddr5-4000-c1", "chargecache"),    # fastest clock, deep timings
    ("ddr4-2400-c8", "none"),            # 8 cores on a non-DDR3 grade
)

def _scenario_parity_run(scenario_name, mechanism, engine):
    from repro.harness import scenarios
    from repro.harness.runner import build_config
    from repro.harness.spec import Scale
    from repro.dram.organization import Organization
    from repro.workloads.mixes import make_mix_traces

    scale = Scale(single_core_instructions=2500,
                  multi_core_instructions=900,
                  warmup_cpu_cycles=1000, max_mem_cycles=500_000)
    cfg = build_config(scenario_name, mechanism, scale, engine=engine)
    org = Organization.from_config(cfg.dram)
    scen = scenarios.scenario(scenario_name)
    traces = make_mix_traces(scenarios.scenario_workload_names(scen, "w1"),
                             org)
    return System(cfg, traces).run(max_mem_cycles=scale.max_mem_cycles)


@pytest.mark.parametrize("scenario_name,mechanism", SCENARIO_PARITY_GRID)
def test_scenario_matrix_parity(scenario_name, mechanism):
    dense = _scenario_parity_run(scenario_name, mechanism, "dense")
    event = _scenario_parity_run(scenario_name, mechanism, "event")
    for field in PARITY_FIELDS:
        assert getattr(event, field) == getattr(dense, field), (
            f"engine divergence on {scenario_name}/{mechanism} "
            f"field {field!r}: event={getattr(event, field)!r} "
            f"dense={getattr(dense, field)!r}")
    # The run exercised DRAM (a vacuous parity proves nothing).
    assert dense.activations > 0


def test_run_cache_hit_is_bit_identical_per_engine(tmp_path):
    """A persistent-cache hit must be indistinguishable from a fresh
    run for *both* engines, so the cache can never mask (or fake) an
    engine divergence: if event and dense ever disagreed, their cached
    results would disagree identically."""
    from repro.harness import runner
    from repro.harness.spec import Scale

    scale = Scale(single_core_instructions=2500,
                  multi_core_instructions=1200,
                  warmup_cpu_cycles=1000, max_mem_cycles=400_000)
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "run-cache")):
        try:
            by_engine = {}
            for engine in ("dense", "event"):
                spec = runner.workload_spec("hmmer", "chargecache", scale,
                                            enable_rltl=True, engine=engine)
                fresh, source = runner.run_spec_ex(spec)
                assert source == "computed"
                runner.clear_memo()  # force the disk layer on the next call
                cached, source = runner.run_spec_ex(spec)
                assert source == "disk"
                for field in PARITY_FIELDS:
                    assert getattr(cached, field) == getattr(fresh, field), (
                        f"cache round-trip changed {field!r} on {engine}")
                assert cached.config == fresh.config
                for interval in fresh.rltl.intervals_ms:
                    assert cached.rltl.rltl(interval) == \
                        fresh.rltl.rltl(interval)
                by_engine[engine] = cached
            # And the cached artifacts themselves still satisfy parity.
            for field in PARITY_FIELDS:
                assert getattr(by_engine["event"], field) == \
                    getattr(by_engine["dense"], field), (
                    f"cached engine divergence on {field!r}")
        finally:
            runner.clear_memo()
