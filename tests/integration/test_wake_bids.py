"""Dense-stepping regression for the controller's wake bid.

After every visited cycle, including one where a command issued,
:meth:`MemoryController.next_event_cycle` bids the exact next cycle
the controller can act at (read-event head, refresh deadlines, the
FR-FCFS readiness snapshot's ready bound, pending precharges,
mechanism wake).  The snapshot is rebuilt only when the controller
state changed, so the exact bid costs about one snapshot per issued
command.  These tests pin the properties the bid must keep:

* **Soundness** — every counter of an event-engine run stays
  bit-identical to the dense tick-per-cycle reference, on workloads
  that alternate idle-heavy and memory-bound phases (exactly where a
  too-high bid would skip an action cycle and silently diverge).
* **Effectiveness** — the engine visits meaningfully fewer cycles
  than dense on mixed phases, and its visits-per-command stays under a
  budget; an underestimating bid (such as a cheaper post-issue bound)
  busts the budget.
* **Cost per command** — the scheduler and the bid together make a
  bounded number of :meth:`Channel.earliest` queries and readiness
  snapshots per issued command; rescanning an unchanged controller
  state busts the snapshot budget.
* **Cost per visit** — a visit steps only the side that is due
  (controllers, or cores and LLC), each tick or bid asks the scheduler
  once, the controller's cached mechanism wake equals a fresh
  ``next_wake`` at every bid, the core bids ``_step`` takes are the
  ones an after-the-step walk would take, the LLC is ticked only with
  parked requests, and an open-row channel never asks its row policy.
* **Cost per run** — the LLC creates only the sets a run looks up.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.controller.controller import MemoryController
from repro.controller.queues import RequestQueue
from repro.controller.row_policy import OpenRowPolicy
from repro.controller.scheduler import FRFCFSScheduler
from repro.core import registry
from repro.core.timing_policy import DefaultTiming
from repro.cpu.cache import SharedCache
from repro.cpu.core import Core
from repro.cpu.system import System
from repro.cpu.trace import TraceRecord
from repro.dram.channel import Channel
from repro.dram.organization import Organization
from repro.dram.timing import NEVER, TimingParameters
from repro.harness.runner import build_config
from repro.workloads.synthetic import random_trace, zipf_trace

from tests.conftest import tiny_config
from tests.integration.test_engine_parity import PARITY_FIELDS


def _mixed_phase_trace(org, seed: int = 1):
    """Alternate idle-heavy stretches with memory-bound bursts.

    The phase boundary is where the post-issue bid matters most: a
    burst keeps the channel saturated (bid must not overshoot the next
    ready command), then a quiet phase makes the next event tens of
    cycles away (bid must not degenerate to cycle-stepping).
    """
    idle = list(itertools.islice(
        random_trace(org, 1 << 18, 300.0, seed=seed), 40))
    busy = list(itertools.islice(
        zipf_trace(org, 1 << 21, 2.0, seed=seed + 17,
                   write_fraction=0.3), 200))
    records = []
    for phase in range(6):
        records.extend(idle if phase % 2 == 0 else busy)
    return [TraceRecord(*rec) for rec in records]


@pytest.mark.parametrize("mechanism", ("none", "chargecache"))
def test_mixed_phase_parity(mechanism):
    cfg = tiny_config(mechanism, instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    results = {}
    for engine in ("dense", "event"):
        system = System(replace(cfg, engine=engine),
                        [iter(_mixed_phase_trace(org))])
        results[engine] = system.run(max_mem_cycles=600_000)
    for field in PARITY_FIELDS:
        assert getattr(results["event"], field) == \
            getattr(results["dense"], field), field


def test_mixed_phase_visit_budget():
    """The bid must keep skipping cycles on mixed idle/busy phases.

    ``System.visited_cycles`` counts engine loop iterations.  Dense
    visits every bus cycle by construction; the event engine with the
    bank-state bid lands well under both the dense count and a
    visits-per-command budget (measured ~3-4 with the bid, ~9 with the
    old blanket ``cycle + 1`` rebid on command-dense workloads).
    """
    cfg = tiny_config("chargecache", instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)

    dense_system = System(replace(cfg, engine="dense"),
                          [iter(_mixed_phase_trace(org))])
    dense = dense_system.run(max_mem_cycles=600_000)
    # Dense ticks every bus cycle (warmup included, so >= mem_cycles).
    assert dense_system.visited_cycles >= dense.mem_cycles

    event_system = System(replace(cfg, engine="event"),
                          [iter(_mixed_phase_trace(org))])
    event = event_system.run(max_mem_cycles=600_000)
    visited = event_system.visited_cycles

    assert event.mem_cycles == dense.mem_cycles
    assert visited < dense.mem_cycles / 2, \
        f"event engine visited {visited} of {dense.mem_cycles} cycles"
    commands = (event.reads + event.writes + event.activations
                + event.refreshes)
    assert commands > 0
    visits_per_command = visited / commands
    assert visits_per_command <= 6.0, (
        f"{visits_per_command:.2f} visits/command — post-issue bid "
        "regressed toward cycle stepping")


def test_mixed_phase_earliest_call_budget(monkeypatch):
    """The scheduler must stay O(banks) per scan, not O(queue).

    Counts :meth:`Channel.earliest` calls (``can_issue`` goes through
    it too) per issued command on the same fixed mixed-phase run.  The
    count is exact, so unlike a timing bound it cannot flake.  One walk
    over the queued banks, whose ready bound the wake bid reuses,
    measures 8.5 calls per command here; the older two-pass FR-FCFS
    over every queued request, with a separate bid scan, measured 12.5.
    """
    cfg = tiny_config("chargecache", instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    calls = 0
    earliest = Channel.earliest

    def counted(self, command, rank, bank):
        nonlocal calls
        calls += 1
        return earliest(self, command, rank, bank)

    monkeypatch.setattr(Channel, "earliest", counted)
    system = System(replace(cfg, engine="event"),
                    [iter(_mixed_phase_trace(org))])
    system.run(max_mem_cycles=600_000)
    commands = sum(controller._issue_count
                   for controller in system.controllers)
    assert commands > 0
    per_command = calls / commands
    assert per_command <= 10.0, (
        f"{per_command:.2f} Channel.earliest calls per command — "
        "scheduling regressed toward per-request scans")


def _mixed_phase_event_system(mechanism: str = "chargecache"):
    """The fixed mixed-phase event system, not yet run."""
    cfg = tiny_config(mechanism, instruction_limit=20_000,
                      warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    return System(replace(cfg, engine="event"),
                  [iter(_mixed_phase_trace(org))])


def _mixed_phase_event_run(mechanism: str = "chargecache", system=None):
    """The fixed mixed-phase event run and its issued-command count
    (``system``: one from :func:`_mixed_phase_event_system`)."""
    if system is None:
        system = _mixed_phase_event_system(mechanism)
    system.run(max_mem_cycles=600_000)
    # One command per issuing tick: refresh, scheduled or pending PRE.
    commands = sum(controller._issue_count
                   for controller in system.controllers)
    assert commands > 0
    return system, commands


def test_mixed_phase_snapshot_budget():
    """FR-FCFS readiness is rebuilt once per controller state.

    ``FRFCFSScheduler.snapshots`` counts readiness snapshots, an exact
    count.  With the snapshot cache this run builds 1.21 per issued
    command; rebuilding on every ``choose``/``next_ready_cycle`` call
    (no cache) measures 2.82.
    """
    system, commands = _mixed_phase_event_run()
    snapshots = sum(controller.scheduler.snapshots
                    for controller in system.controllers)
    per_command = snapshots / commands
    assert per_command <= 1.3, (
        f"{per_command:.2f} readiness snapshots per command — the "
        "scheduler rescans unchanged controller states")


def test_mixed_phase_exact_bid_visit_budget():
    """The controller's bid is exact, also right after an issue.

    Visited cycles per issued command on the fixed mixed-phase run, an
    exact count: 1.80 with the exact bid; 2.18 with the earlier cheaper
    post-issue lower bound, whose underestimates each cost a visited
    cycle that does nothing.
    """
    system, commands = _mixed_phase_event_run()
    per_command = system.visited_cycles / commands
    assert per_command <= 1.9, (
        f"{per_command:.2f} visited cycles per command — the wake bid "
        "underestimates the controller's next action")


def _count_calls(monkeypatch, *targets):
    """Count calls to each ``(owner, name)`` method, keyed
    ``"Owner.name"``; returns the live dict."""
    calls = {}
    for owner, name in targets:
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def wrapper(*args, _original=getattr(owner, name), _key=key,
                    **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_mixed_phase_hot_path_call_budget(monkeypatch):
    """Per-visit state is read from maintained fields, not recomputed.

    On the fixed mixed-phase run, the controller reads queue lengths
    off ``RequestQueue.items``, the LLC decodes miss addresses with
    ``AddressMapper.decode_into``'s precomputed shifts, and a non-hit
    ACT reuses the channel's default ``ReducedTimings``, so none of
    these helpers is called from Python during the run.  The FR-FCFS
    snapshot computes its gates inline and the engine reads the LLC's
    retry lists, so ``Channel.rank_gates`` and
    ``SharedCache.has_parked_requests`` are gone; nothing read the
    queues' occupancy samples or per-row counts, so
    ``RequestQueue.sample_occupancy`` and ``_row_count`` are gone too.
    The counts are exact: a refactor that puts one back on the hot path
    fails here rather than in a timing run.

    The served queue is re-selected only after a queue length changed:
    at most once per push or removal (here 401 calls for 470 of them;
    re-selecting on every tick and bid measured 1,775).
    """
    assert not hasattr(Channel, "rank_gates")
    assert not hasattr(SharedCache, "has_parked_requests")
    assert not hasattr(RequestQueue, "sample_occupancy")
    system = _mixed_phase_event_system()
    assert not hasattr(system.controllers[0].read_q, "_row_count")
    calls = _count_calls(monkeypatch, (RequestQueue, "__len__"),
                         (Organization, "decode"),
                         (TimingParameters, "default_timings"),
                         (MemoryController, "_select_queue"),
                         (RequestQueue, "remove"))
    system, commands = _mixed_phase_event_run(system=system)
    assert system.llc.load_misses > 0
    selections = calls.pop("MemoryController._select_queue")
    removals = calls.pop("RequestQueue.remove")    # one per RD/WR
    assert calls == {"RequestQueue.__len__": 0,
                     "Organization.decode": 0,
                     "TimingParameters.default_timings": 0}
    # Every push is removed by a RD/WR or still queued at the end.
    pushes = removals + sum(len(c.read_q.items) + len(c.write_q.items)
                            for c in system.controllers)
    assert 0 < selections <= pushes + removals, (selections, pushes,
                                                 removals)


def test_mixed_phase_scheduler_views_stay_on_the_path(monkeypatch):
    """The controller asks the scheduler through ``choose`` and
    ``next_ready_cycle``, once per tick or bid that reaches it.

    Exact counts on the fixed mixed-phase run: of the 880 ticks, 741
    reach the scheduler (the other 139 find both queues empty), and of
    the 946 controller bids, 715 reach it (the others return first,
    because a read completion or refresh already bids the next cycle,
    or find both queues empty).  No tick or bid asks twice,
    so every call has its own cycle, and the engine bids at most once
    per visited cycle.  These are the names ``perfbench``'s tracer
    wraps, so a refactor that bypasses them fails here.
    """
    cycles = {"choose": [], "next_ready_cycle": []}
    for name, seen in cycles.items():
        def record(self, queue, channel, cycle, blocked_ranks=(),
                   _original=getattr(FRFCFSScheduler, name), _seen=seen):
            _seen.append(cycle)
            return _original(self, queue, channel, cycle, blocked_ranks)

        monkeypatch.setattr(FRFCFSScheduler, name, record)
    calls = _count_calls(monkeypatch, (MemoryController, "tick"),
                         (MemoryController, "next_event_cycle"))
    system, commands = _mixed_phase_event_run()
    assert len(system.controllers) == 1
    assert calls == {"MemoryController.tick": 880,
                     "MemoryController.next_event_cycle": 946}
    assert len(cycles["choose"]) == 741
    assert len(cycles["next_ready_cycle"]) == 715
    for seen in cycles.values():
        assert len(set(seen)) == len(seen)
    assert calls["MemoryController.next_event_cycle"] \
        <= system.visited_cycles


def test_paper_system_builds_no_llc_sets():
    """LLC sets are created on first lookup: a freshly built paper
    single-core system (4 MB LLC, 4,096 sets) holds none."""
    system = System(build_config("single", "chargecache"), [iter(())])
    assert system.llc.num_sets == 4096
    assert len(system.llc.sets) == 0


def test_mixed_phase_llc_holds_exactly_the_touched_sets(monkeypatch):
    """After the fixed mixed-phase run, the LLC holds a set for exactly
    the set indices the cores' loads and stores looked up (fills and
    writebacks reuse them): 154 of its 256."""
    touched = set()
    for name in ("access_load", "access_store"):
        def record(self, core_id, line_address, *args,
                   _original=getattr(SharedCache, name), **kwargs):
            touched.add(line_address % self.num_sets)
            return _original(self, core_id, line_address, *args,
                             **kwargs)

        monkeypatch.setattr(SharedCache, name, record)
    system, commands = _mixed_phase_event_run()
    assert set(system.llc.sets) == touched
    assert len(touched) == 154 < system.llc.num_sets


def test_mixed_phase_visit_kind_budgets(monkeypatch):
    """Each visit steps only the side that is due.

    Exact call counts on the fixed mixed-phase run (946 visited
    cycles).  A controller-only visit ticks the controllers and skips
    the cores, the LLC and the core bids; a core-only visit skips the
    controller ticks; and cores blocked on a load are not asked for a
    bid (``_step`` asks the others right after stepping them).
    Stepping both sides on every visit measures 946 ticks, 638
    ``Core.run_until`` calls and 579 core bids.
    """
    calls = _count_calls(monkeypatch, (MemoryController, "tick"),
                         (Core, "run_until"),
                         (Core, "next_event_cpu_cycle"))
    system, commands = _mixed_phase_event_run()
    assert system.visited_cycles <= 946
    assert calls == {"MemoryController.tick": 880,
                     "Core.run_until": 375,
                     "Core.next_event_cpu_cycle": 123}


def test_mixed_phase_core_llc_and_row_policy_budgets(monkeypatch):
    """The core dispatches in one loop, the LLC retries only parked
    requests, and an open-row controller never asks its row policy.

    Exact counts on the fixed mixed-phase run, which is open-row and
    never parks a request.  ``Core.run_until`` dispatches bubble
    stretches and accesses itself, without ``_dispatch_bubbles`` and
    ``_dispatch_access``.  ``SharedCache.tick`` used to run on each of
    the 267 full and core-only visits, every time with nothing to
    retry; ``OpenRowPolicy.wants_precharge_after`` ran once per RD/WR
    (235 times), always answering False.  Both now make no call.
    """
    assert not hasattr(Core, "_dispatch_bubbles")
    assert not hasattr(Core, "_dispatch_access")
    calls = _count_calls(monkeypatch, (SharedCache, "tick"),
                         (OpenRowPolicy, "wants_precharge_after"))
    system, commands = _mixed_phase_event_run()
    assert system.config.controller.row_policy == "open"
    assert calls == {"SharedCache.tick": 0,
                     "OpenRowPolicy.wants_precharge_after": 0}


def test_llc_tick_only_on_visits_with_parked_requests(monkeypatch):
    """With two-entry queues the LLC parks requests all the time.  It
    is ticked on exactly the 8,581 of the run's 8,584 visits that find
    a parked request (an exact count), and each tick has one to
    retry."""
    from repro.config import ControllerConfig
    from tests.integration.test_engine_parity import _traces

    ticks = []
    tick = SharedCache.tick

    def checked_tick(self):
        ticks.append(bool(self.retry_reads or self.retry_writes))
        return tick(self)

    monkeypatch.setattr(SharedCache, "tick", checked_tick)
    cfg = replace(tiny_config(instruction_limit=4000),
                  controller=ControllerConfig(read_queue_size=2,
                                              write_queue_size=2))
    system = System(cfg, _traces(cfg, "random"))
    system.run(max_mem_cycles=900_000)
    assert system.visited_cycles == 8_584
    assert len(ticks) == 8_581 and all(ticks)


class _AsksAfterTheStep(System):
    """The engine before core bids moved into ``_step``: the step takes
    none, so ``_external_bid`` asks every core itself after each
    visit."""

    def _step(self, mem, controllers, bid=False):
        return super()._step(mem, controllers)


def _assert_same_asks(monkeypatch, cfg, make_traces):
    """Run ``cfg`` on both engines and compare every core bid asked
    (core, its clock and block reason, the answer, in call order), the
    visited cycles and the results."""
    asked = []
    bid = Core.next_event_cpu_cycle

    def recorded(self):
        result = bid(self)
        asked.append((self.core_id, self.now, self.block_reason, result))
        return result

    monkeypatch.setattr(Core, "next_event_cpu_cycle", recorded)
    runs = []
    for cls in (System, _AsksAfterTheStep):
        del asked[:]
        system = cls(cfg, make_traces())
        result = system.run(max_mem_cycles=600_000)
        runs.append((system.visited_cycles, list(asked), result))
    (visited, asks, result), (ref_visited, ref_asks, ref_result) = runs
    assert visited == ref_visited
    assert asks == ref_asks
    for field in PARITY_FIELDS:
        assert getattr(result, field) == getattr(ref_result, field), field
    return asks


@pytest.mark.parametrize("cores,channels,policy,idle_finished,pattern", (
    (8, 2, "closed", False, "zipf"),
    (8, 2, "closed", True, "random"),
    (2, 1, "open", False, "stream"),
    (4, 2, "open", True, "zipf"),
))
def test_core_bids_taken_in_the_step_are_the_same_asks(
        monkeypatch, cores, channels, policy, idle_finished, pattern):
    """``_step`` asks each core it leaves runnable for its bid right
    after stepping it, and ``_external_bid`` asks only the cores the
    step left out.  The cores asked, in order, the state they are asked
    in and the answers equal those of an engine that asks every core
    after the step, with the same early exit (also when the hit heap
    bids the next cycle, so that every core is asked) and none asked on
    the visit that ends the run; so do the visited cycles and the
    results."""
    from tests.integration.test_engine_parity import _traces

    cfg = replace(tiny_config("chargecache", num_cores=cores,
                              channels=channels, row_policy=policy,
                              instruction_limit=1500, warmup=2000),
                  idle_finished_cores=idle_finished)
    asks = _assert_same_asks(monkeypatch, cfg, lambda: _traces(cfg, pattern))
    assert len(asks) > cores


def test_warmup_visit_core_bids_follow_the_reset(monkeypatch):
    """The warmup visit resets the instruction count the core bid's
    limit crossing is measured from, so its bids are asked after the
    reset, by ``_external_bid``.  Here the core is 50 instructions
    short of its limit before the reset (bid: the crossing, inside the
    bubble stretch) and 950 after it (bid: the stretch's end)."""
    cfg = tiny_config("none", instruction_limit=950, warmup=300)
    records = [TraceRecord(1000, 0x40, False)]
    asks = _assert_same_asks(monkeypatch, cfg,
                             lambda: [itertools.cycle(records)])
    # At the warmup visit (cpu 300) the core has 100 bubbles left.
    assert (0, 300, 0, 300 + 100 // 3) in asks


@pytest.mark.parametrize("engine", ("dense", "event"))
def test_blocked_cores_are_caught_up_before_the_warmup_reset(monkeypatch,
                                                             engine):
    """``_step`` leaves a core blocked on a load at its clock until
    something reads it; the warmup reset does (it restarts the stall
    and IPC accounting), so at the reset every core stands at the
    visit's CPU time, as in an engine that advances every core on
    every visit."""
    from tests.integration.test_engine_parity import _traces

    at_reset = []
    reset = System._reset_stats

    def checked(self, cpu_now, mem):
        at_reset.append([core.now - cpu_now for core in self.cores])
        return reset(self, cpu_now, mem)

    monkeypatch.setattr(System, "_reset_stats", checked)
    cfg = replace(tiny_config("chargecache", num_cores=8, channels=2,
                              row_policy="closed", instruction_limit=1500,
                              warmup=2000), engine=engine)
    System(cfg, _traces(cfg, "zipf")).run(max_mem_cycles=600_000)
    assert at_reset == [[0] * 8]


def _check_cached_wake_at_bids(monkeypatch):
    """Make every controller bid assert that the cached mechanism
    wake equals a fresh ``next_wake``; returns the checked
    ``(mechanism, wake)`` pairs."""
    checked = []
    bid = MemoryController.next_event_cycle

    def checked_bid(self, cycle):
        fresh = self.mechanism.next_wake(cycle)
        assert self._mech_wake == fresh, (cycle, self._mech_wake, fresh)
        checked.append((self.mechanism, fresh))
        return bid(self, cycle)

    monkeypatch.setattr(MemoryController, "next_event_cycle", checked_bid)
    return checked


@pytest.mark.parametrize("mechanism", (
    *registry.mechanism_names(), "chargecache(unbounded=true)",
    "chargecache+nuat"))
def test_cached_mechanism_wake_is_fresh_at_every_bid(monkeypatch,
                                                     mechanism):
    """The controller caches ``next_wake`` after ``on_activate``,
    ``on_precharge`` and ``maintain``, the only calls that may change
    it (the :meth:`LatencyMechanism.next_wake` contract)."""
    checked = _check_cached_wake_at_bids(monkeypatch)
    _mixed_phase_event_run(mechanism)
    assert checked
    if mechanism in ("chargecache", "chargecache+nuat"):
        # The run moves the wake: HCRAC fills and sweeps happen.
        assert len({wake for _, wake in checked}) > 2


class _MovingWake(DefaultTiming):
    """Moves its wake in every hook, as the ``next_wake`` contract
    allows (the built-in mechanisms never move it in ``on_activate``)."""

    def __init__(self, timing):
        super().__init__(timing)
        self.wake = 1234

    def on_activate(self, rank, bank, row, core_id, cycle):
        self.wake = cycle + 1000
        return super().on_activate(rank, bank, row, core_id, cycle)

    def on_precharge(self, rank, bank, row, core_id, cycle):
        self.wake = cycle + 3

    def maintain(self, cycle):
        self.wake = NEVER

    def next_wake(self, cycle):
        return self.wake


def test_cached_wake_follows_assignment_and_every_hook(monkeypatch):
    """The controller reads its mechanism's wake at construction, and
    re-reads it after ``on_activate``, ``on_precharge`` and
    ``maintain``."""
    checked = _check_cached_wake_at_bids(monkeypatch)
    monkeypatch.setattr(registry, "build",
                        lambda spec, ctx: _MovingWake(ctx.timing))
    cfg = tiny_config("none", instruction_limit=20_000, warmup=1_000)
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    system = System(cfg, [iter(_mixed_phase_trace(org))])
    controller = system.controllers[0]
    assert isinstance(controller.mechanism, _MovingWake)
    assert controller.next_event_cycle(0) == 1234
    system.run(max_mem_cycles=600_000)
    wakes = {wake for _, wake in checked}
    assert NEVER in wakes and len(wakes) > 100
