"""Unit tests for the batch evaluator's building blocks.

Covers the decision-replay layer (:mod:`repro.core.replay`), the
``fork_state`` protocol on every registered mechanism, the record-once
:class:`~repro.cpu.trace.TraceTape`, and ``System.run_batch``'s
bit-identity and collapse telemetry.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NUATConfig
from repro.core import registry, replay
from repro.core.chargecache import ChargeCache, chargecache_params
from repro.core.nuat import NUAT
from repro.core.replay import (
    MAX_DECISION_CODE,
    MechanismEventLog,
    RecordingMechanism,
    fork_for_replay,
    replay_decisions_match,
)
from repro.core.timing_policy import CombinedMechanism, DefaultTiming
from repro.cpu.system import System, mechanism_invariant_config
from repro.cpu.trace import TraceRecord, TraceTape
from repro.dram.organization import Organization
from repro.dram.refresh import RefreshScheduler
from repro.dram.standards import preset
from repro.dram.timing import ReducedTimings
from repro.harness.runner import build_config
from repro.harness.scenarios import scenario_names
from repro.workloads.synthetic import zipf_trace

from tests.conftest import tiny_config

TIMING = preset("DDR3-1600")

#: The ChargeCache parameters of ``tiny_config("chargecache")``.
_TINY_CC = chargecache_params(tiny_config("chargecache").mechanism)


# ----------------------------------------------------------------------
# TraceTape
# ----------------------------------------------------------------------

class TestTraceTape:
    RECORDS = [TraceRecord(3, 0x10, False), TraceRecord(0, 0x20, True),
               TraceRecord(9, 0x30, False)]

    def test_readers_are_independent_and_identical(self):
        tape = TraceTape([iter(self.RECORDS)])
        a, b = tape.reader(0), tape.reader(0)
        assert next(a) == self.RECORDS[0]
        assert list(b) == self.RECORDS  # b catches up and passes a
        assert list(a) == self.RECORDS[1:]

    def test_source_consumed_once(self):
        calls = []

        def source():
            for rec in self.RECORDS:
                calls.append(rec)
                yield rec

        tape = TraceTape([source()])
        assert list(tape.reader(0)) == self.RECORDS
        assert list(tape.reader(0)) == self.RECORDS
        assert calls == self.RECORDS  # memoized, not regenerated

    def test_readers_matches_core_count(self):
        tape = TraceTape([iter(self.RECORDS), iter(self.RECORDS[:1])])
        readers = tape.readers()
        assert len(readers) == len(tape) == 2
        assert list(readers[1]) == self.RECORDS[:1]


# ----------------------------------------------------------------------
# RecordingMechanism + replay
# ----------------------------------------------------------------------

def _drive(mechanism, events):
    """Feed (kind, rank, bank, row, cycle) tuples; returns decisions."""
    decisions = []
    for kind, rank, bank, row, cycle in events:
        if kind == "A":
            decisions.append(
                mechanism.on_activate(rank, bank, row, 0, cycle))
        else:
            mechanism.on_precharge(rank, bank, row, 0, cycle)
    return decisions


EVENTS = [
    ("A", 0, 0, 5, 100), ("P", 0, 0, 5, 300),
    ("A", 0, 0, 5, 400),            # hit: precharged 100 cycles ago
    ("A", 0, 1, 7, 450), ("P", 0, 1, 7, 600),
]


#: The geometry ``tiny_config`` simulates.
ORG = Organization.from_config(tiny_config().dram)


def _log(cores=1):
    return MechanismEventLog(ORG, cores)


class TestRecordingAndReplay:
    def _chargecache(self):
        return ChargeCache(TIMING, _TINY_CC, num_cores=1)

    def test_recording_is_transparent(self):
        plain = _drive(self._chargecache(), EVENTS)
        log = _log()
        recorded = _drive(RecordingMechanism(self._chargecache(), log),
                          EVENTS)
        assert recorded == plain
        assert len(log) == len(EVENTS)
        hit = self._chargecache().hit_timings
        assert list(log) == [
            ("A", 0, 0, 5, 0, 100, None), ("P", 0, 0, 5, 0, 300, None),
            ("A", 0, 0, 5, 0, 400, hit),
            ("A", 0, 1, 7, 0, 450, None), ("P", 0, 1, 7, 0, 600, None)]

    def test_stats_resolve_through_wrapper(self):
        log = _log()
        wrapper = RecordingMechanism(self._chargecache(), log)
        _drive(wrapper, EVENTS)
        assert wrapper.lookups == 3
        assert wrapper.hits == 1

    def test_identical_variant_matches(self):
        log = _log()
        _drive(RecordingMechanism(self._chargecache(), log), EVENTS)
        assert replay_decisions_match([log], [self._chargecache()])

    def test_diverging_variant_mismatches(self):
        log = _log()
        _drive(RecordingMechanism(self._chargecache(), log), EVENTS)
        # A no-op mechanism never offers reduced timings, so the hit
        # decision recorded at cycle 400 cannot be reproduced.
        assert not replay_decisions_match([log], [DefaultTiming(TIMING)])

    def test_channel_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            replay_decisions_match([_log()], [])


# ----------------------------------------------------------------------
# The packed log
# ----------------------------------------------------------------------

class _Hooks:
    """Passes calls through to ``inner`` and keeps what each hook saw
    as one tuple per event, in the decoded log's shape: the reference
    a packed log must decode to, and the log format before packing."""

    def __init__(self, inner):
        self.inner = inner
        self.events = []
        self.supports_decision_replay = inner.supports_decision_replay
        self.maintain = inner.maintain
        self.next_wake = inner.next_wake

    def on_activate(self, rank, bank, row, core_id, cycle):
        decision = self.inner.on_activate(rank, bank, row, core_id, cycle)
        self.events.append(("A", rank, bank, row, core_id, cycle,
                            decision))
        return decision

    def on_precharge(self, rank, bank, row, core_id, cycle):
        self.events.append(("P", rank, bank, row, core_id, cycle, None))
        self.inner.on_precharge(rank, bank, row, core_id, cycle)


def _replay_tuples(channels, mechanisms):
    """``replay_decisions_match`` over per-channel tuple logs."""
    for events, mechanism in zip(channels, mechanisms):
        if not mechanism.supports_decision_replay:
            return False
        for kind, rank, bank, row, core_id, cycle, decision in events:
            if kind == "A":
                if mechanism.on_activate(rank, bank, row, core_id,
                                         cycle) != decision:
                    return False
            else:
                mechanism.on_precharge(rank, bank, row, core_id, cycle)
    return True


def _platform(name):
    cfg = build_config(name, "none")
    return (Organization.from_config(cfg.dram), cfg.processor.num_cores,
            preset(cfg.dram.standard))


#: (organization, cores, timing) of every scenario platform.
PLATFORMS = {name: _platform(name) for name in scenario_names()}


class _RowBinned(DefaultTiming):
    """Up to 13 distinct decisions, each a pure function of the ACT."""

    def on_activate(self, rank, bank, row, core_id, cycle):
        super().on_activate(rank, bank, row, core_id, cycle)
        if row % 5 == 0:
            return None
        return ReducedTimings(row % 5, (bank + core_id) % 3)


#: Every registered mechanism, a composition whose decisions are the
#: element-wise minimum of two mechanisms' offers, and ``_RowBinned``.
MECHANISMS = (*registry.mechanism_names(), "chargecache+nuat", "binned")


def _build(spec, platform):
    org, cores, timing = PLATFORMS[platform]
    if spec == "binned":
        return _RowBinned(timing)
    return registry.build(spec, registry.MechanismContext(
        timing=timing, num_cores=cores,
        refresh_scheduler=RefreshScheduler(timing, org.ranks, org.rows)))


@st.composite
def _streams(draw):
    """A platform, a recorded and a replayed mechanism, and an
    ACT/PRE stream over 1-2 channels with rising cycles."""
    platform = draw(st.sampled_from(sorted(PLATFORMS)))
    org, cores, _ = PLATFORMS[platform]
    channels = draw(st.integers(1, 2))
    rows = st.one_of(st.sampled_from((0, 1, org.rows - 1)),
                     st.integers(0, org.rows - 1))
    gaps = st.one_of(st.integers(0, 300), st.integers(0, 3_000_000))
    steps = draw(st.lists(st.tuples(
        st.integers(0, channels - 1), st.booleans(),
        st.integers(0, org.ranks - 1), st.integers(0, org.banks - 1),
        rows, st.integers(-1, cores - 1), gaps),
        min_size=20, max_size=120))
    cycle, events = 0, []
    for channel, act, rank, bank, row, core_id, gap in steps:
        cycle += gap
        events.append((channel, act, rank, bank, row, core_id, cycle))
    return (platform, channels, draw(st.sampled_from(MECHANISMS)),
            draw(st.sampled_from(MECHANISMS)), events)


class TestPackedLog:
    @settings(max_examples=150, deadline=None)
    @given(_streams())
    def test_round_trip_and_replay_match_the_tuple_log(self, stream):
        platform, channels, recorded, replayed, events = stream
        org, cores, _ = PLATFORMS[platform]
        logs = [MechanismEventLog(org, cores) for _ in range(channels)]
        hooks = [_Hooks(_build(recorded, platform))
                 for _ in range(channels)]
        wrappers = [RecordingMechanism(h, log)
                    for h, log in zip(hooks, logs)]
        for channel, act, rank, bank, row, core_id, cycle in events:
            if act:
                wrappers[channel].on_activate(rank, bank, row, core_id,
                                              cycle)
            else:
                wrappers[channel].on_precharge(rank, bank, row, core_id,
                                               cycle)
        for log, h in zip(logs, hooks):
            assert list(log) == h.events
        # Same answer, same calls in the same order, same early exit.
        packed = [_Hooks(_build(replayed, platform))
                  for _ in range(channels)]
        tuples = [_Hooks(_build(replayed, platform))
                  for _ in range(channels)]
        assert replay_decisions_match(logs, packed) == _replay_tuples(
            [h.events for h in hooks], tuples)
        assert [h.events for h in packed] == [h.events for h in tuples]

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    def test_every_platform_field_fits(self, platform):
        org, cores, _ = PLATFORMS[platform]
        log = MechanismEventLog(org, cores)
        wrapper = RecordingMechanism(DefaultTiming(TIMING), log)
        last = (org.ranks - 1, org.banks - 1, org.rows - 1, cores - 1)
        wrapper.on_activate(*last, 7)
        wrapper.on_precharge(0, 0, 0, -1, 9)
        assert list(log) == [("A", *last, 7, None),
                             ("P", 0, 0, 0, -1, 9, None)]

    @pytest.mark.parametrize("field,org,cores", [
        ("rank", Organization(ranks=1 << 63), 1),
        ("bank", Organization(banks=1 << 63), 1),
        ("core", ORG, 1 << 60),
        ("row", Organization(rows=1 << 60), 1),
        ("row", ORG, 1 << 40),
    ])
    def test_a_field_that_does_not_fit_is_refused_at_construction(
            self, field, org, cores):
        with pytest.raises(ValueError, match=f"^{field}: "):
            MechanismEventLog(org, cores)

    def test_a_row_past_the_top_bits_raises_and_does_not_wrap(self):
        log = _log()
        wrapper = RecordingMechanism(DefaultTiming(TIMING), log)
        wrapper.on_activate(0, 1, 5, 0, 10)
        too_big = 1 << 63 - log.shifts[-1]
        with pytest.raises(OverflowError):
            wrapper.on_activate(0, 1, too_big, 0, 20)
        with pytest.raises(OverflowError):
            wrapper.on_precharge(0, 1, too_big, 0, 30)
        wrapper.on_precharge(0, 1, too_big - 1, 0, 40)
        assert list(log) == [("A", 0, 1, 5, 0, 10, None),
                             ("P", 0, 1, too_big - 1, 0, 40, None)]

    def test_decision_table_is_bounded(self):
        log = _log()
        for trcd in range(MAX_DECISION_CODE):
            assert log.code(ReducedTimings(trcd, 0)) == trcd + 1
        assert log.code(ReducedTimings(0, 0)) == 1
        with pytest.raises(ValueError, match="^decision: "):
            log.code(ReducedTimings(0, 1))

    def test_a_log_holds_no_object_per_event(self):
        """16 bytes per decision point: the buffer holds two int64 per
        event and the log allocates no Python object per event."""
        events = 20_000
        hit = ReducedTimings(5, 20)
        log = MechanismEventLog(ORG, 8)
        stub = DefaultTiming(TIMING)
        stub.on_activate = lambda rank, bank, row, core_id, cycle: \
            hit if row & 1 else None
        wrapper = RecordingMechanism(stub, log)
        rows = [row % ORG.rows for row in range(events)]
        gc.collect()
        tracked = len(gc.get_objects())
        tracemalloc.start()
        try:
            for row in rows:
                cycle = 10 ** 9 + 7 * row
                if row & 3:
                    wrapper.on_activate(0, 7, row, row % 9 - 1, cycle)
                else:
                    wrapper.on_precharge(0, 3, row, -1, cycle)
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gc.get_objects()) - tracked < 50
        assert len(log) == events
        _, length = log.words.buffer_info()
        assert length * log.words.itemsize == 16 * events
        # array grows its buffer by up to 1/16 ahead of the data.
        assert grown <= 17 * events + 4096


# ----------------------------------------------------------------------
# fork_state / supports_decision_replay protocol
# ----------------------------------------------------------------------

class TestForkProtocol:
    def test_chargecache_forks_fresh_state(self):
        mech = ChargeCache(TIMING, _TINY_CC, num_cores=1)
        _drive(mech, EVENTS)
        fork = mech.fork_state()
        assert fork.config == mech.config
        assert fork.lookups == 0 and fork.hits == 0
        assert all(t.valid_count == 0 for t in fork.tables)

    def test_combined_forks_parts(self):
        cc = ChargeCache(TIMING, _TINY_CC, num_cores=1)
        combined = CombinedMechanism(TIMING, cc, DefaultTiming(TIMING))
        fork = combined.fork_state()
        assert isinstance(fork, CombinedMechanism)
        assert len(fork.mechanisms) == 2
        assert fork.mechanisms[0] is not cc

    def test_nuat_opts_out(self):
        nuat = NUAT(TIMING, NUATConfig(), refresh=None)
        assert not nuat.supports_decision_replay
        assert fork_for_replay(nuat, channels=1) is None
        with pytest.raises(NotImplementedError):
            nuat.fork_state()

    def test_fork_for_replay_yields_per_channel_instances(self):
        mech = DefaultTiming(TIMING)
        forks = fork_for_replay(mech, channels=2)
        assert len(forks) == 2
        assert forks[0] is not forks[1]


# ----------------------------------------------------------------------
# System.run_batch
# ----------------------------------------------------------------------

def _result_payload(result):
    """Everything but config/probes, for bit-identity comparison."""
    return dataclasses.asdict(dataclasses.replace(
        result, config=None, rltl=None, reuse=None))


def _variant(mechanism, **cc_kwargs):
    # The 1 ms caching duration with its sweep stretched to 100 ms.
    return tiny_config(mechanism, instruction_limit=4_000,
                       time_scale=0.01, **cc_kwargs)


def _trace(cfg, seed=3):
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    return zipf_trace(org, 128 * 1024, 6.0, seed, alpha=1.8,
                      write_fraction=0.2)


class TestRunBatch:
    def test_bit_identical_to_serial_with_collapse(self):
        configs = [_variant("none"),
                   _variant("chargecache", entries=64),
                   _variant("chargecache", entries=256),
                   _variant("chargecache", unbounded=True),
                   _variant("lldram")]
        serial = [System(cfg, [_trace(cfg)]).run(max_mem_cycles=300_000)
                  for cfg in configs]
        telemetry = {}
        batch = System.run_batch(configs, [_trace(configs[0])],
                                 max_mem_cycles=300_000,
                                 telemetry=telemetry)
        assert len(batch) == len(configs)
        for expect, got in zip(serial, batch):
            assert _result_payload(got) == _result_payload(expect)
            assert got.config == expect.config
        # The capacity variants share one decision stream on this
        # hot-row-set workload, so at least one run must collapse.
        assert telemetry["full_runs"] + telemetry["collapsed"] \
            == len(configs)
        assert telemetry["collapsed"] >= 1

    def test_the_last_variant_runs_unrecorded(self, monkeypatch):
        """No later variant can replay the last one's log, so of N
        variants that all run in full, N - 1 are recorded."""
        wrapped = []

        class Counting(replay.RecordingMechanism):
            def __init__(self, inner, log):
                wrapped.append(inner)
                super().__init__(inner, log)

        monkeypatch.setattr(replay, "RecordingMechanism", Counting)
        configs = [_variant("none"), _variant("chargecache", entries=64),
                   _variant("lldram")]
        telemetry = {}
        System.run_batch(configs, [_trace(configs[0])],
                         max_mem_cycles=300_000, telemetry=telemetry)
        assert telemetry == {"full_runs": 3, "collapsed": 0}
        assert len(wrapped) == 2

    def test_nuat_variants_never_collapse(self):
        configs = [_variant("nuat"), _variant("nuat")]
        telemetry = {}
        batch = System.run_batch(configs, [_trace(configs[0])],
                                 max_mem_cycles=300_000,
                                 telemetry=telemetry)
        assert telemetry == {"full_runs": 2, "collapsed": 0}
        assert _result_payload(batch[0]) == _result_payload(batch[1])

    def test_collapsed_results_own_their_containers(self):
        configs = [_variant("chargecache", entries=64),
                   _variant("chargecache", entries=256)]
        telemetry = {}
        batch = System.run_batch(configs, [_trace(configs[0])],
                                 max_mem_cycles=300_000,
                                 telemetry=telemetry)
        assert telemetry["collapsed"] == 1
        witness, clone = batch
        assert clone.ipcs == witness.ipcs
        assert clone.ipcs is not witness.ipcs
        assert clone.extra is not witness.extra

    def test_rejects_platform_divergence(self):
        base = _variant("none")
        other = dataclasses.replace(_variant("chargecache"),
                                    warmup_cpu_cycles=99)
        with pytest.raises(ValueError):
            System.run_batch([base, other], [_trace(base)])

    def test_empty_batch(self):
        assert System.run_batch([], []) == []


class TestMechanismInvariantConfig:
    def test_strips_only_mechanism_fields(self):
        a = mechanism_invariant_config(_variant("chargecache", entries=64))
        b = mechanism_invariant_config(
            _variant("chargecache", unbounded=True))
        c = mechanism_invariant_config(_variant("none"))
        assert a == b == c

    def test_platform_fields_survive(self):
        a = mechanism_invariant_config(_variant("none"))
        b = mechanism_invariant_config(
            dataclasses.replace(_variant("none"), instruction_limit=7))
        assert a != b
