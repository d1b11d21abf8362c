"""Unit tests for the batch evaluator's building blocks.

Covers the decision-replay layer (:mod:`repro.core.replay`), the
``fork_state`` protocol on every registered mechanism, the record-once
:class:`~repro.cpu.trace.TraceTape`, and ``System.run_batch``'s
bit-identity and collapse telemetry.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.config import NUATConfig
from repro.core.chargecache import ChargeCache, chargecache_params
from repro.core.nuat import NUAT
from repro.core.replay import (
    MechanismEventLog,
    RecordingMechanism,
    fork_for_replay,
    replay_decisions_match,
)
from repro.core.timing_policy import CombinedMechanism, DefaultTiming
from repro.cpu.system import System, mechanism_invariant_config
from repro.cpu.trace import TraceRecord, TraceTape
from repro.dram.organization import Organization
from repro.dram.standards import preset
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


class TestRecordingAndReplay:
    def _chargecache(self):
        return ChargeCache(TIMING, _TINY_CC, num_cores=1)

    def test_recording_is_transparent(self):
        plain = _drive(self._chargecache(), EVENTS)
        log = MechanismEventLog()
        recorded = _drive(RecordingMechanism(self._chargecache(), log),
                          EVENTS)
        assert recorded == plain
        assert len(log) == len(EVENTS)
        kinds = [event[0] for event in log.events]
        assert kinds == [e[0] for e in EVENTS]

    def test_stats_resolve_through_wrapper(self):
        log = MechanismEventLog()
        wrapper = RecordingMechanism(self._chargecache(), log)
        _drive(wrapper, EVENTS)
        assert wrapper.lookups == 3
        assert wrapper.hits == 1

    def test_identical_variant_matches(self):
        log = MechanismEventLog()
        _drive(RecordingMechanism(self._chargecache(), log), EVENTS)
        assert replay_decisions_match([log], [self._chargecache()])

    def test_diverging_variant_mismatches(self):
        log = MechanismEventLog()
        _drive(RecordingMechanism(self._chargecache(), log), EVENTS)
        # A no-op mechanism never offers reduced timings, so the hit
        # decision recorded at cycle 400 cannot be reproduced.
        assert not replay_decisions_match([log], [DefaultTiming(TIMING)])

    def test_channel_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            replay_decisions_match([MechanismEventLog()], [])


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
