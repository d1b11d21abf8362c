"""The full simulated system: cores + shared LLC + memory controllers.

Clocking follows the paper: cores at 4 GHz, DRAM bus at 800 MHz, so the
system advances in DRAM bus cycles and lets each core catch up by
``cpu_cycles_per_mem_cycle`` (5) CPU cycles per bus cycle.  Load
completions are delivered through a single event heap in CPU time.

A run executes until every core has retired ``instruction_limit``
post-warmup instructions (finished cores keep executing so memory
pressure stays realistic, exactly like trace-loop methodology in
Ramulator-based studies).

Two clock engines share the per-cycle body (:meth:`System._step`):

* **dense** ticks every bus cycle - the reference implementation.
* **event** (default) asks every component for its next wake-up - the
  earliest ready command from the per-bank timing state, the next
  refresh due, the next read completion, the next core memory access
  or instruction-limit crossing - and advances ``mem_cycle`` straight
  to the minimum.  Because every wake-up is a
  *lower bound* on the component's next observable action and all
  state changes happen at visited cycles, the visited set is a
  superset of the dense engine's action cycles and the two engines
  produce bit-identical statistics (see DESIGN.md and
  ``tests/integration/test_engine_parity.py``).  Each visit steps only
  the side that is due: the controllers alone, the cores and LLC
  alone, or the whole ``_step`` (:meth:`System._run_event`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.config import SimulationConfig
from repro.controller.controller import MemoryController
from repro.core import registry
from repro.cpu.cache import SharedCache
from repro.cpu.core import BLOCK_REJECT, Core
from repro.cpu.trace import TraceRecord, TraceTape
from repro.dram.organization import Organization
from repro.dram.refresh import RefreshScheduler
from repro.dram.standards import preset
from repro.dram.timing import NEVER
from repro.stats.metrics import ipc

if TYPE_CHECKING:
    from repro.stats.reuse import RowReuseProfiler
    from repro.stats.rltl import RLTLProbe


@dataclass
class RunResult:
    """Everything the harness needs from one simulation run."""

    config: SimulationConfig
    mem_cycles: int
    cpu_cycles: int
    instructions: List[int]
    core_cycles: List[int]
    ipcs: List[float]
    llc_hit_rate: float
    llc_load_misses: int
    activations: int
    act_reduced: int
    reads: int
    writes: int
    refreshes: int
    row_hit_rate: float
    average_read_latency_cycles: float
    mechanism_lookups: int
    mechanism_hits: int
    active_bank_cycles: int
    rank_active_cycles: int = 0
    #: Total post-warmup instructions retired by all cores, including
    #: work done by cores that kept executing after reaching their
    #: instruction limit (trace-loop methodology).  Use this for
    #: iso-work comparisons such as energy per instruction.
    work_instructions: int = 0
    truncated: bool = False
    rltl: Optional[RLTLProbe] = None
    reuse: Optional[RowReuseProfiler] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mechanism_hit_rate(self) -> float:
        if not self.mechanism_lookups:
            return 0.0
        return self.mechanism_hits / self.mechanism_lookups

    @property
    def total_ipc(self) -> float:
        return sum(self.ipcs)

    def rmpkc(self) -> float:
        """Row misses (activations) per kilo CPU cycle."""
        if self.cpu_cycles <= 0:
            return 0.0
        return self.activations * 1000.0 / self.cpu_cycles


def mechanism_invariant_config(config: SimulationConfig) -> SimulationConfig:
    """``config`` with its mechanism spec, the one home of every
    mechanism parameter, normalized away.

    Two configurations whose invariant forms are equal simulate the
    identical system up to the latency mechanism's decisions — the
    compatibility condition for sharing one trace replay in
    :meth:`System.run_batch` (and for the harness's batch grouping).
    """
    return replace(config, mechanism="none")


class System:
    """Wires cores, LLC and controllers together and runs the clock."""

    def __init__(self, config: SimulationConfig,
                 traces: Sequence[Iterator[TraceRecord]],
                 enable_rltl: bool = False,
                 rltl_time_scale: float = 1.0,
                 enable_reuse: bool = False,
                 log_commands: bool = False):
        config.validate()
        if len(traces) != config.processor.num_cores:
            raise ValueError(
                f"need {config.processor.num_cores} traces, got {len(traces)}")
        self.config = config
        self.timing = preset(config.dram.standard)
        self.organization = Organization.from_config(config.dram)
        self.ratio = config.cpu_cycles_per_mem_cycle

        # The probes are imported only by the runs that enable them.
        self.rltl_probe = None
        if enable_rltl:
            from repro.stats.rltl import RLTLProbe
            self.rltl_probe = RLTLProbe(self.timing,
                                        time_scale=rltl_time_scale)
        self.reuse_probe = None
        if enable_reuse:
            from repro.stats.reuse import RowReuseProfiler
            self.reuse_probe = RowReuseProfiler()
        probes = [p for p in (self.rltl_probe, self.reuse_probe)
                  if p is not None]
        if not probes:
            controller_probe = None
        elif len(probes) == 1:
            controller_probe = probes[0]
        else:
            from repro.stats.probes import CompositeProbe
            controller_probe = CompositeProbe(probes)

        self.controllers: List[MemoryController] = []
        for ch in range(self.organization.channels):
            refresh = RefreshScheduler(self.timing, self.organization.ranks,
                                       self.organization.rows)
            # Channels build their latency mechanism through the
            # registry: config.mechanism is a spec string (possibly a
            # +-composition with inline parameter overrides) that
            # carries every mechanism parameter.
            mechanism = registry.build(
                config.mechanism,
                registry.MechanismContext(
                    timing=self.timing,
                    num_cores=config.processor.num_cores,
                    refresh_scheduler=refresh))
            controller = MemoryController(
                ch, self.timing, self.organization.ranks,
                self.organization.banks, self.organization.rows,
                config.controller, mechanism, refresh=refresh,
                rltl_probe=controller_probe, log_commands=log_commands)
            self.controllers.append(controller)
            if self.rltl_probe is not None:
                self.rltl_probe.refresh_schedulers[ch] = refresh

        self.mem_cycle = 0
        #: Engine-efficiency instrumentation (not part of RunResult, so
        #: cache keys and artifacts are unaffected): how many bus cycles
        #: the engine actually stepped.
        self.visited_cycles = 0
        self._ran = False
        #: The last ``_step``'s core bids (see ``_external_bid``), its
        #: cycle, and the CPU time its cores started from.
        self._core_bid, self._bid_from, self._stepped = NEVER, 0, 0
        self._cpu_prev = 0
        self._events: List = []  # (cpu_time, seq, core_id, token)
        self._event_seq = 0
        self._warmed = config.warmup_cpu_cycles == 0

        self.llc = SharedCache(config.cache, self.organization,
                               self.controllers,
                               hit_notify=self._schedule_hit,
                               load_notify=self._load_done,
                               current_mem_cycle=lambda: self.mem_cycle)

        self.cores: List[Core] = []
        for core_id in range(config.processor.num_cores):
            core = Core(core_id, traces[core_id], issue=self._core_issue,
                        instruction_limit=config.instruction_limit)
            self.cores.append(core)

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------

    def _core_issue(self, core_id: int, line_address: int, is_write: bool,
                    token: int) -> bool:
        if is_write:
            return self.llc.access_store(core_id, line_address)
        return self.llc.access_load(core_id, line_address, token)

    def _load_done(self, core_id: int, token: int) -> None:
        core = self.cores[core_id]
        if core.now < self._cpu_prev:
            self._catch_up((core,), self._cpu_prev)
        core.on_load_complete(token)

    def _schedule_hit(self, core_id: int, token: int, delay: int) -> None:
        cpu_time = self.mem_cycle * self.ratio + delay
        self._event_seq += 1
        heapq.heappush(self._events,
                       (cpu_time, self._event_seq, core_id, token))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_mem_cycles: Optional[int] = None) -> RunResult:
        """Run to completion (all cores at their instruction limit).

        ``max_mem_cycles`` is a safety stop; if hit, the result is
        flagged ``truncated`` and IPCs reflect the partial run.
        Dispatches to the engine named by ``config.engine``.

        A System runs once: the run ends by detaching its graph
        (:meth:`_detach`), so a second call raises ``RuntimeError``.
        """
        if self._ran:
            raise RuntimeError(
                "a System runs once: its finished run detached the "
                "callbacks that wire cores, LLC and controllers "
                "together; build a new System for another run")
        self._ran = True
        try:
            if self.config.engine == "dense":
                return self._run_dense(max_mem_cycles)
            return self._run_event(max_mem_cycles)
        finally:
            self._detach()

    def _detach(self) -> None:
        """Cut every edge from the run's graph back up to the System or
        the LLC (DESIGN.md section 3, "A finished run frees its graph").

        The graph then holds no reference cycle and is freed by
        reference counting as soon as the caller drops the System; the
        forward references (``cores``, ``llc``, ``controllers``, their
        statistics and command logs) stay readable.
        """
        for core in self.cores:
            core.issue = None
        llc = self.llc
        llc.hit_notify = llc.load_notify = llc.mem_cycle = None
        for controller in self.controllers:
            controller.read_done = None

    @classmethod
    def run_batch(cls, configs: Sequence[SimulationConfig],
                  traces: Sequence[Iterator[TraceRecord]],
                  max_mem_cycles: Optional[int] = None,
                  enable_rltl: bool = False,
                  rltl_time_scale: float = 1.0,
                  enable_reuse: bool = False) -> List[RunResult]:
        """Run N mechanism variants of one workload off one trace tape.

        Every config must describe the *same* system except for its
        latency mechanism (checked via
        :func:`mechanism_invariant_config`); ``traces`` is consumed
        once into a :class:`~repro.cpu.trace.TraceTape` that all
        variants replay.  Each variant runs in full on its own System
        and shares nothing but the tape, so each result is
        bit-identical to the variant's standalone serial run — the
        contract the harness's run cache depends on.
        """
        configs = list(configs)
        if not configs:
            return []
        invariant = mechanism_invariant_config(configs[0])
        for cfg in configs[1:]:
            if mechanism_invariant_config(cfg) != invariant:
                raise ValueError(
                    "batch variants must differ only in mechanism-"
                    f"defining fields; {cfg.mechanism!r} variant "
                    "changes the shared platform")
        tape = TraceTape(traces)
        return [cls(cfg, tape.readers(), enable_rltl=enable_rltl,
                    rltl_time_scale=rltl_time_scale,
                    enable_reuse=enable_reuse).run(
                        max_mem_cycles=max_mem_cycles)
                for cfg in configs]

    def _step(self, mem: int, controllers: Sequence[MemoryController],
              bid: bool = False) -> bool:
        """The per-bus-cycle body shared by both engines.

        Delivers due CPU-side events, ticks ``controllers`` (all of
        them, or none on a visit where no controller is due) and the
        LLC, lets every core catch up to CPU time (asking it for its
        bid with ``bid``), and handles the warmup boundary.  Returns
        True when every core is finished.
        """
        ratio = self.ratio
        cpu_now = mem * ratio
        events = self._events
        cores = self.cores
        warmed = self._warmed
        idles = self.config.idle_finished_cores and warmed
        self._cpu_prev = cpu_prev = cpu_now - ratio
        if self._stepped < mem - 1:
            # After skipped cycles, run the runnable cores up to the
            # previous cycle's CPU time first, where the dense engine has
            # them when this visit's completions arrive (the wake-up
            # bounds guarantee the advance issues nothing).  A core
            # blocked on a load catches up only when its completion
            # arrives (_load_done): in the dense engine it consumes
            # wall-clock every cycle, so the time skipped while stalled
            # must not be handed back as dispatch budget.
            for core in cores:
                if core.now < cpu_prev and not (idles and core.finished):
                    reason = core.block_reason
                    if not reason:
                        core.run_until(cpu_prev)
                    elif reason == BLOCK_REJECT:
                        self._catch_up((core,), cpu_prev)
        self._stepped = mem
        while events and events[0][0] <= cpu_now:
            _, _, core_id, token = heapq.heappop(events)
            self._load_done(core_id, token)
        for controller in controllers:
            controller.tick(mem)
        llc = self.llc
        if llc.retry_reads or llc.retry_writes:
            llc.tick()
        crossing = not warmed and cpu_now >= self.config.warmup_cpu_cycles
        # Core bids in _external_bid's order; none on the warmup visit
        # (the reset changes them) or with parked requests (unread).
        asking = bid and not crossing \
            and not (llc.retry_reads or llc.retry_writes)
        core_bid, all_finished = NEVER, True
        bid_from = len(cores) if asking else 0
        for core in cores:
            if idles and core.finished:
                continue
            reason = core.block_reason
            if reason and reason != BLOCK_REJECT:
                # Blocked on a load: no bid, and _load_done catches up.
                if all_finished and not core.finished:
                    all_finished = False
                continue
            if reason:
                core.retry_rejected()
            core.run_until(cpu_now)
            if not core.finished:
                all_finished = False
            elif idles:
                continue            # it idles from now on: no bid
            reason = core.block_reason
            if not asking or (reason and reason != BLOCK_REJECT):
                continue
            if warmed and all_finished:
                # If the rest finish too the run ends unasked: leave
                # this core and the rest to _external_bid.
                asking = False
                bid_from = core.core_id
                continue
            c = core.next_event_cpu_cycle()
            # Step the core at the first bus cycle past CPU cycle c.
            if c is not None and c // ratio + 1 < core_bid:
                core_bid = c // ratio + 1
                if core_bid <= mem + 1:
                    asking = False
                    bid_from = core.core_id + 1
        if crossing:
            self._catch_up(cores, cpu_now)
            self._warmed = True
            self._reset_stats(cpu_now, mem)
            all_finished = False
        if bid:
            self._core_bid = core_bid
            self._bid_from = bid_from
        return all_finished

    def _run_dense(self, max_mem_cycles: Optional[int]) -> RunResult:
        """Reference engine: visit every bus cycle."""
        truncated = False
        controllers = self.controllers
        while True:
            self.mem_cycle += 1
            self.visited_cycles += 1
            all_finished = self._step(self.mem_cycle, controllers)
            if self._warmed and all_finished:
                break
            if max_mem_cycles is not None and self.mem_cycle >= max_mem_cycles:
                truncated = True
                break
        return self._collect(truncated)

    def _run_event(self, max_mem_cycles: Optional[int]) -> RunResult:
        """Event engine: advance straight to the next wake-up cycle.

        Cycles between wake-ups are provably no-ops (no command can
        issue, no completion fires, no core can touch memory), so
        skipping them leaves every statistic bit-identical to the
        dense engine.  Each visit also skips the side that provably has
        nothing to do at it:

        * **controller-only**: the target is a controller bid earlier
          than the cached external bid (:meth:`_external_bid`), fires
          no read completion and is not the ``max_mem_cycles`` stop.
          Only the controllers tick, and only they re-bid: nothing the
          external bid reads (cores, LLC, hit events) changes.  A
          stretch of such visits runs in one inner loop, whose last
          bid is carried out of it as the next target.
        * **core-only**: every controller bids later than the target,
          so ticking one would be a no-op; ``_step`` runs without them.
        * **full**: everything else, ``_step`` as the dense engine runs
          it, after which the external bid is recomputed.
        """
        truncated = False
        controllers = self.controllers
        llc = self.llc
        stop = NEVER if max_mem_cycles is None else max_mem_cycles
        external = -1          # stale: recompute before the next use
        while True:
            cycle = self.mem_cycle
            if llc.retry_reads or llc.retry_writes:
                # The dense engine retries parked LLC requests every
                # cycle; a parked read may newly forward from the write
                # queue the cycle after a matching store arrives, which
                # no controller or core bid covers.  Step densely until
                # the lists drain.
                target, ticked = cycle + 1, controllers
            else:
                if external <= cycle:
                    external = self._external_bid()
                while True:     # controller-only visits
                    soon = cycle + 1
                    nxt = NEVER
                    for controller in controllers:
                        w = controller.next_event_cycle(cycle)
                        if w < nxt:
                            nxt = w
                            if nxt <= soon:
                                break
                    if nxt >= external or nxt >= stop:
                        break
                    for controller in controllers:
                        events = controller.read_events
                        if events and events[0][0] <= nxt:
                            break   # a completion wakes a core
                    else:
                        self.mem_cycle = cycle = nxt
                        self.visited_cycles += 1
                        for controller in controllers:
                            controller.tick(cycle)
                        continue
                    break
                if nxt < external:
                    target, ticked = nxt, controllers
                else:
                    target = external
                    ticked = () if nxt > target else controllers
                if target >= NEVER:
                    if max_mem_cycles is None:
                        raise RuntimeError(
                            "event engine deadlock: no pending wake-ups "
                            "but cores are not finished")
                    target = max_mem_cycles
            if target >= stop:
                target, ticked = max_mem_cycles, controllers
            self.mem_cycle = target
            self.visited_cycles += 1
            all_finished = self._step(target, ticked, target < stop)
            external = -1
            if self._warmed and all_finished:
                break
            if target >= stop:
                truncated = True
                break
        return self._collect(truncated)

    def _external_bid(self) -> int:
        """The earliest cycle after ``mem_cycle`` at which anything
        outside the controllers can act: a due LLC hit event, the
        warmup boundary, or a core's next memory access or
        instruction-limit crossing (``NEVER`` when none is pending).

        Cores are asked in index order until one bids the next cycle
        (unless the hit heap or warmup already does); ``_step`` asked
        those before ``_bid_from`` (minimum ``_core_bid``).  Cores
        blocked on a load bid nothing (a controller event unblocks
        them).  The bid stays valid across controller-only visits,
        which change none of its inputs.
        """
        soon = self.mem_cycle + 1
        ratio = self.ratio
        nxt = NEVER
        if self._events:
            # Delivered at the first bus cycle with mem*ratio >= stamp.
            nxt = -(-self._events[0][0] // ratio)
        warmed = self._warmed
        if not warmed:
            nxt = min(nxt, -(-self.config.warmup_cpu_cycles // ratio))
        core_bid = self._core_bid
        walk = self._bid_from < len(self.cores) \
            and (core_bid > soon or nxt <= soon)
        if core_bid < nxt:
            nxt = core_bid
        if walk:
            idles = self.config.idle_finished_cores and warmed
            for core in self.cores[self._bid_from:]:
                reason = core.block_reason
                if (reason and reason != BLOCK_REJECT) \
                        or (idles and core.finished):
                    continue
                c = core.next_event_cpu_cycle()
                if c is not None and c // ratio + 1 < nxt:
                    nxt = c // ratio + 1
                    if nxt <= soon:
                        return soon
        return nxt if nxt > soon else soon

    def _catch_up(self, cores: Sequence[Core], cpu: int) -> None:
        """Advance ``cores`` that ``_step`` left behind (blocked on a
        load) to CPU cycle ``cpu``, before anything reads their clock."""
        idles = self.config.idle_finished_cores and self._warmed
        for core in cores:
            if core.now < cpu and not (idles and core.finished):
                core.now = cpu

    def _reset_stats(self, cpu_now: int, mem: int) -> None:
        for controller in self.controllers:
            controller.reset_stats(mem)
        for core in self.cores:
            core.reset_stats(cpu_now)
        self.llc.reset_stats()
        self._warmup_end_cpu = cpu_now
        self._warmup_end_mem = mem

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------

    def _collect(self, truncated: bool) -> RunResult:
        self._catch_up(self.cores, self.mem_cycle * self.ratio)
        start_mem = getattr(self, "_warmup_end_mem", 0)
        start_cpu = getattr(self, "_warmup_end_cpu", 0)
        mem_cycles = self.mem_cycle - start_mem
        cpu_cycles = self.mem_cycle * self.ratio - start_cpu

        instructions = []
        core_cycles = []
        ipcs = []
        limit = self.config.instruction_limit
        for core in self.cores:
            retired = min(core.retired_since_reset, limit)
            end = core.finish_cycle if core.finish_cycle is not None \
                else core.now
            cycles = max(1, end - core.stats_start_cycle)
            instructions.append(retired)
            core_cycles.append(cycles)
            ipcs.append(ipc(retired, cycles))

        activations = sum(c.stats.activations for c in self.controllers)
        act_reduced = sum(c.stats.act_reduced for c in self.controllers)
        reads = sum(c.stats.reads for c in self.controllers)
        writes = sum(c.stats.writes for c in self.controllers)
        refreshes = sum(c.stats.refreshes for c in self.controllers)
        lookups = sum(c.mechanism.lookups for c in self.controllers)
        hits = sum(c.mechanism.hits for c in self.controllers)
        row_hits = sum(c.stats.read_row_hits + c.stats.write_row_hits
                       for c in self.controllers)
        col_cmds = reads + writes
        lat_sum = sum(c.stats.read_latency_sum for c in self.controllers)
        lat_cnt = sum(c.stats.read_count for c in self.controllers)
        active = sum(c.active_cycles(self.mem_cycle)
                     for c in self.controllers)
        rank_active = sum(c.rank_active_cycles(self.mem_cycle)
                          for c in self.controllers)
        work = sum(core.retired_since_reset for core in self.cores)

        return RunResult(
            config=self.config,
            mem_cycles=mem_cycles,
            cpu_cycles=cpu_cycles,
            instructions=instructions,
            core_cycles=core_cycles,
            ipcs=ipcs,
            llc_hit_rate=self.llc.hit_rate(),
            llc_load_misses=self.llc.load_misses,
            activations=activations,
            act_reduced=act_reduced,
            reads=reads,
            writes=writes,
            refreshes=refreshes,
            row_hit_rate=(row_hits / col_cmds) if col_cmds else 0.0,
            average_read_latency_cycles=(lat_sum / lat_cnt) if lat_cnt else 0.0,
            mechanism_lookups=lookups,
            mechanism_hits=hits,
            active_bank_cycles=active,
            rank_active_cycles=rank_active,
            work_instructions=work,
            truncated=truncated,
            rltl=self.rltl_probe,
            reuse=self.reuse_probe,
        )
