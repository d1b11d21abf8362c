"""Cross-configuration conformance suite for the scenario matrix.

Every axis the scaling/standards experiments sweep — core count,
ranks per channel, timing grade — is exercised end-to-end here:
the scenario's config must reach the engine (timing grade included),
the emitted command stream must satisfy the *scenario's own* standard
constraints (re-verified by the independent checker), and the
controller's event-engine wake-up bid must stay exact on multi-rank
channels.

``TestAxisConformance`` holds exactly one scenario per axis; CI runs
this subset (``-k TestAxisConformance``) on every push so matrix
shrinkage is visible in the reported test counts.

Multi-rank wake-bid audit (ISSUE 3 satellite): ``next_event_cycle``
was audited for ranks_per_channel > 1 — the refresh loop, the
scheduler bound and the pending-PRE scan all iterate every rank, and
dense/event parity holds on all sampled multi-rank platforms (see
test_engine_parity.SCENARIO_PARITY_GRID), so no fix was needed.
``test_multi_rank_wake_bid_is_exact`` pins the audit down directly:
it dense-steps a two-rank controller and asserts the bid is never
later than the next observable action.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import ControllerConfig
from repro.controller.controller import MemoryController
from repro.controller.request import Request, RequestType
from repro.core.chargecache import chargecache_params
from repro.core.timing_policy import LatencyMechanism
from repro.cpu.system import System
from repro.dram.commands import Command
from repro.dram.organization import Organization
from repro.dram.standards import derated_reduction_cycles
from repro.dram.timing import DDR3_1600
from repro.harness import runner, scenarios
from repro.harness.runner import build_config
from repro.harness.spec import Scale
from repro.workloads.mixes import make_mix_traces
from repro.workloads.synthetic import random_trace

from tests.conftest import tiny_config
from tests.helpers import check_command_log

TINY = Scale(single_core_instructions=2500, multi_core_instructions=700,
             warmup_cpu_cycles=1000, max_mem_cycles=500_000)

#: One scenario per previously-untested axis.  CI runs exactly this
#: subset; the rest of the module covers the axes more broadly.
CONFORMANCE_AXES = {
    "cores2": "c2-r1",
    "cores4": "c4-r1",
    "cores16": "c16-r1",
    "ranks2": "c1-r2",
    "ddr4": "ddr4-2400-c1",
    "lpddr3": "lpddr3-1600-c1",
    "gddr5": "gddr5-4000-c1",
}


def _run_scenario_logged(name: str, mechanism: str = "chargecache"):
    cfg = build_config(name, mechanism, TINY)
    org = Organization.from_config(cfg.dram)
    scen = scenarios.scenario(name)
    traces = make_mix_traces(scenarios.scenario_workload_names(scen, "w1"),
                             org)
    system = System(cfg, traces, log_commands=True)
    result = system.run(max_mem_cycles=TINY.max_mem_cycles)
    return system, result


class TestAxisConformance:
    """One end-to-end run per axis (the CI subset)."""

    @pytest.mark.parametrize("axis", sorted(CONFORMANCE_AXES))
    def test_axis(self, axis):
        name = CONFORMANCE_AXES[axis]
        scen = scenarios.scenario(name)
        system, result = _run_scenario_logged(name)

        # The scenario's timing grade actually reached the engine: on
        # the pre-scenario code path System hard-wired DDR3-1600
        # regardless of configuration, so this guards the whole
        # standards axis.
        assert system.timing.name == scen.standard
        assert not result.truncated
        assert result.activations > 0
        assert result.mechanism_lookups > 0
        assert len(result.ipcs) == scen.num_cores
        assert all(ipc > 0 for ipc in result.ipcs)

        # Command stream legality under the scenario's own standard,
        # including its rescaled ChargeCache reductions.
        timing = system.timing
        trcd_reduction, tras_reduction = derated_reduction_cycles(
            timing,
            chargecache_params(result.config.mechanism).caching_duration_ms)
        checked = 0
        for controller in system.controllers:
            log = controller.channel.command_log
            checked += check_command_log(
                log, timing,
                reduced_trcd=timing.tRCD - trcd_reduction,
                reduced_tras=timing.tRAS - tras_reduction)
            if scen.ranks_per_channel > 1:
                act_ranks = {c.rank for c in log
                             if c.command is Command.ACT}
                assert act_ranks == set(range(scen.ranks_per_channel))
        assert checked > 50  # the run genuinely exercised DRAM

        # Every channel saw traffic (the mapper interleaves channels
        # on low address bits, so a silent channel means mis-routing).
        for controller in system.controllers:
            assert controller.stats.activations > 0


class TestTimingGradeReachesEngine:
    def test_refresh_cadence_follows_the_standard(self):
        """LPDDR3 refreshes twice as often as DDR3 (tREFI 3125 vs
        6250): over an identical bus-cycle window the controller must
        issue ~2x the REFs.  Fails if the configured standard is
        silently replaced by DDR3 timing."""
        counts = {}
        for standard in ("DDR3-1600", "LPDDR3-1600"):
            cfg = tiny_config(standard=standard,
                              instruction_limit=10 ** 7, warmup=0)
            org = Organization.from_config(cfg.dram)
            system = System(cfg, [random_trace(org, 1 << 22, 30.0, 1)])
            result = system.run(max_mem_cycles=40_000)
            assert result.truncated  # fixed window, not run length
            counts[standard] = result.refreshes
        assert counts["DDR3-1600"] >= 3
        assert counts["LPDDR3-1600"] >= 2 * counts["DDR3-1600"] - 2

    def test_read_latency_tracks_the_grade(self):
        """GDDR5's CL is 24 cycles vs DDR3's 11; identical traffic
        must report a visibly higher read latency in bus cycles."""
        lat = {}
        for name in ("c1-r1", "gddr5-4000-c1"):
            _, result = _run_scenario_logged(name, mechanism="none")
            lat[name] = result.average_read_latency_cycles
        assert lat["gddr5-4000-c1"] > lat["c1-r1"]


class TestScenarioCacheRoundTrip:
    def test_scenario_result_survives_the_disk_layer(self, tmp_path):
        """A scenario run recalled from the persistent cache must be
        bit-identical to the fresh computation (the codec round-trips
        the standard-bearing config)."""
        runner.clear_memo()
        with runner.executing(cache_dir=str(tmp_path / "run-cache")):
            try:
                spec = runner.scenario_spec("c2-r2", "w1", "chargecache",
                                            TINY)
                fresh, source = runner.run_spec_ex(spec)
                assert source == "computed"
                runner.clear_memo()
                cached, source = runner.run_spec_ex(spec)
                assert source == "disk"
                assert cached.config == fresh.config
                assert cached.config.dram.standard == "DDR3-1600"
                from tests.integration.test_engine_parity import PARITY_FIELDS
                for field in PARITY_FIELDS:
                    assert getattr(cached, field) == getattr(fresh, field)
            finally:
                runner.clear_memo()


# ----------------------------------------------------------------------
# Multi-rank wake-bid audit
# ----------------------------------------------------------------------

def _random_request(rng, org) -> Request:
    kind = RequestType.READ if rng.random() < 0.7 else RequestType.WRITE
    return Request(int(rng.integers(0, org.total_lines)), kind)


def _drive_and_audit_bids(num_ranks: int, timing, seed: int,
                          row_policy: str, cycles: int) -> int:
    """Dense-step one controller; assert its wake-up bid never lands
    after an observable action.

    The event-engine contract: a bid computed at cycle ``c`` is a
    lower bound on the next cycle where :meth:`tick` does anything,
    valid until the controller's state changes (every change happens
    at a visited cycle, where the engine recomputes).  Here every
    cycle is visited, state changes are exactly (command issue, read
    completion pop, forward, enqueue), and the bid from the last
    state-change cycle must therefore never exceed the next action
    cycle.  Returns the number of actions audited.
    """
    org = Organization(channels=1, ranks=num_ranks, banks=4, rows=256,
                       columns=8)
    controller = MemoryController(
        0, timing, num_ranks, org.banks, org.rows,
        ControllerConfig(row_policy=row_policy, read_queue_size=8,
                         write_queue_size=8),
        LatencyMechanism(timing))
    rng = np.random.default_rng(seed)

    def observable_state():
        return (controller._issue_count, controller.stats.forwards,
                len(controller.read_events))

    bid = 1
    actions = 0
    for cycle in range(1, cycles):
        enqueued = False
        if rng.random() < 0.08:
            request = _random_request(rng, org)
            org.decode_into(request)
            if request.type is RequestType.READ:
                enqueued = controller.enqueue_read(request, cycle)
            else:
                enqueued = controller.enqueue_write(request, cycle)
        before = observable_state()
        controller.tick(cycle)
        acted = observable_state() != before
        if acted:
            actions += 1
            # An action at the cycle of an enqueue is enabled by the
            # enqueue itself; in the event engine that cycle is visited
            # anyway (the producing core/LLC woke it), so the stale bid
            # legitimately does not cover it.
            if not enqueued:
                assert cycle >= bid, (
                    f"wake bid {bid} overshot: action at cycle {cycle} "
                    f"(ranks={num_ranks}, seed={seed}, "
                    f"policy={row_policy})")
        if acted or enqueued or cycle >= bid:
            bid = controller.next_event_cycle(cycle)
            assert bid > cycle
    return actions


class TestMultiRankWakeBid:
    @pytest.mark.parametrize("seed", (1, 7, 2016))
    @pytest.mark.parametrize("row_policy", ("open", "closed"))
    def test_multi_rank_wake_bid_is_exact(self, seed, row_policy):
        actions = _drive_and_audit_bids(2, DDR3_1600, seed, row_policy,
                                        cycles=20_000)
        assert actions > 100

    def test_wake_bid_exact_under_refresh_pressure(self):
        """Short tREFI keeps both ranks' refreshes overlapping, the
        regime where a single-rank assumption in the bid would bite."""
        stress = replace(DDR3_1600, tREFI=300, tRFC=120)
        actions = _drive_and_audit_bids(2, stress, seed=3,
                                        row_policy="open", cycles=15_000)
        assert actions > 100
