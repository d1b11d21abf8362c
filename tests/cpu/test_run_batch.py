"""``System.run_batch``: N mechanism variants off one trace tape.

Covers the record-once :class:`~repro.cpu.trace.TraceTape`, the
platform guard (:func:`~repro.cpu.system.mechanism_invariant_config`)
and ``run_batch`` itself: every variant runs in full on its own System
and equals its serial run, for every mechanism, composition and
platform.  Also pins the two inert names left in
:mod:`repro.core.replay` for the benchmark tracer.
"""

from __future__ import annotations

import dataclasses
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.controller import MemoryController
from repro.core import registry, replay
from repro.cpu.system import System, mechanism_invariant_config
from repro.cpu.trace import TraceRecord, TraceTape
from repro.dram.organization import Organization
from repro.harness.runner import PLATFORMS, build_config
from repro.workloads.synthetic import zipf_trace

from tests.conftest import tiny_config
from tests.helpers import default_context


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

    def test_a_tape_of_no_cores_has_no_readers(self):
        tape = TraceTape([])
        assert len(tape) == 0
        assert tape.readers() == []

    def test_cores_are_recorded_independently(self):
        """Draining one core's reader pulls nothing from another's
        source."""
        pulled = []

        def source(tag):
            for rec in self.RECORDS:
                pulled.append(tag)
                yield rec

        tape = TraceTape([source(0), source(1)])
        assert list(tape.reader(1)) == self.RECORDS
        assert pulled == [1] * len(self.RECORDS)
        assert list(tape.reader(0)) == self.RECORDS

    def test_a_late_reader_starts_at_the_first_record(self):
        tape = TraceTape([iter(self.RECORDS)])
        first = tape.reader(0)
        assert next(first) == self.RECORDS[0]
        assert next(first) == self.RECORDS[1]
        assert list(tape.reader(0)) == self.RECORDS

    @given(data=st.data(), sources=st.lists(
        st.lists(st.builds(TraceRecord, st.integers(0, 1 << 40),
                           st.integers(0, 1 << 57), st.booleans(),
                           st.booleans()), max_size=12),
        min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_of_readers_replays_the_source(self, data,
                                                            sources):
        """1-4 readers per core, advanced in any order, each yield
        exactly the source's records: equal values, ``bool`` flags,
        ``TraceRecord`` fields."""
        tape = TraceTape([iter(records) for records in sources])
        readers = [(core, tape.reader(core))
                   for core in range(len(sources))
                   for _ in range(data.draw(st.integers(1, 4)))]
        seen = [[] for _ in readers]
        steps = data.draw(st.lists(st.integers(0, len(readers) - 1),
                                   max_size=60))
        for which in steps + [i for i in range(len(readers))
                              for _ in range(13)]:
            record = next(readers[which][1], None)
            if record is not None:
                seen[which].append(record)
        for (core, _), records in zip(readers, seen):
            assert records == sources[core]
            for record, source in zip(records, sources[core]):
                assert type(record) is TraceRecord
                assert [type(value) for value in record] \
                    == [int, int, bool, bool]
                assert record._asdict() == source._asdict()

    def test_the_tape_keeps_only_typed_columns(self):
        """The tape holds its records as two ``array('q')`` and a
        ``bytearray`` per core, never as record objects."""
        tape = TraceTape([iter(self.RECORDS), iter(self.RECORDS[:2])])
        for reader in tape.readers() + tape.readers():
            list(reader)
        assert set(vars(tape)) == {"_sources", "_columns"}
        for (bubbles, lines, flags), records in zip(
                tape._columns, (self.RECORDS, self.RECORDS[:2])):
            assert (type(bubbles), bubbles.typecode) == (array, "q")
            assert (type(lines), lines.typecode) == (array, "q")
            assert type(flags) is bytearray
            assert list(zip(bubbles, lines)) \
                == [(r.bubbles, r.line_address) for r in records]
            assert list(flags) == [r.is_write | r.dependent << 1
                                   for r in records]


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


def _trace(cfg, seed=3, footprint=128 * 1024):
    org = Organization.from_config(cfg.dram)
    return zipf_trace(org, footprint, 6.0, seed, alpha=1.8,
                      write_fraction=0.2)


def _traces(cfg, footprint=128 * 1024):
    """One trace per core, each core on its own seed."""
    return [_trace(cfg, seed=3 + core, footprint=footprint)
            for core in range(cfg.processor.num_cores)]


def _serial(cfg, footprint=128 * 1024):
    return System(cfg, _traces(cfg, footprint)).run(max_mem_cycles=300_000)


#: Every registered mechanism, ChargeCache composed with each other
#: parameterized or refresh-coupled mechanism, and terms that write
#: non-default parameters.
SPECS = (*registry.mechanism_names(),
         "chargecache+aldram", "chargecache+lldram", "chargecache+nuat",
         "aldram(temperature=55)", "lldram(duration_ms=16)",
         "chargecache(duration_ms=16)", "chargecache(sharing=shared)",
         "chargecache(entries=2)", "chargecache(unbounded=true)")


def _platform(name):
    """``tiny_config`` keyword arguments with the cores, channels
    and standard of platform ``name``."""
    cfg = build_config(name, "none")
    return {"num_cores": cfg.processor.num_cores,
            "channels": cfg.dram.channels,
            "standard": cfg.dram.standard}


class TestRunBatch:
    def test_bit_identical_to_serial(self):
        configs = [_variant("none"),
                   _variant("chargecache", entries=64),
                   _variant("chargecache", entries=256),
                   _variant("chargecache", unbounded=True),
                   _variant("lldram"),
                   _variant("nuat"),
                   _variant("chargecache+nuat"),
                   _variant("nuat+lldram")]
        serial = [System(cfg, [_trace(cfg)]).run(max_mem_cycles=300_000)
                  for cfg in configs]
        batch = System.run_batch(configs, [_trace(configs[0])],
                                 max_mem_cycles=300_000)
        assert len(batch) == len(configs)
        for expect, got in zip(serial, batch):
            assert _result_payload(got) == _result_payload(expect)
            assert got.config == expect.config

    def test_every_variant_runs_on_its_own_system(self, monkeypatch):
        """Variants that make identical decisions (the two capacities
        on this hot-row-set workload) still run in full, and no result
        shares a probe object with another."""
        built = []
        init = System.__init__

        def counted(system, config, *args, **kwargs):
            built.append(config)
            init(system, config, *args, **kwargs)

        monkeypatch.setattr(System, "__init__", counted)
        configs = [_variant("chargecache", entries=64),
                   _variant("chargecache", entries=256),
                   _variant("nuat")]
        batch = System.run_batch(configs, [_trace(configs[0])],
                                 max_mem_cycles=300_000,
                                 enable_rltl=True, enable_reuse=True)
        assert len(built) == len(configs)
        assert all(got is cfg for got, cfg in zip(built, configs))
        for cfg, got in zip(configs, batch):
            expect = System(cfg, [_trace(cfg)], enable_rltl=True,
                            enable_reuse=True).run(max_mem_cycles=300_000)
            assert _result_payload(got) == _result_payload(expect)
            assert got.config == cfg
        for probe in ("rltl", "reuse"):
            probes = [getattr(result, probe) for result in batch]
            assert all(p is not None for p in probes)
            assert len({id(p) for p in probes}) == len(probes)

    @pytest.mark.parametrize("spec", SPECS)
    def test_a_repeated_variant_starts_fresh(self, spec):
        """A variant run after others on the same tape decides like a
        fresh build: it inherits no mechanism state from the runs
        before it.  No warmup, so inherited state would show in the
        measured counts."""
        configs = [_variant(mechanism, warmup=0)
                   for mechanism in ("none", spec, spec)]
        batch = System.run_batch(configs, [_trace(configs[0])],
                                 max_mem_cycles=300_000)
        expect = _result_payload(_serial(configs[1]))
        assert _result_payload(batch[1]) == expect
        assert _result_payload(batch[2]) == expect
        assert batch[1] is not batch[2]
        assert _result_payload(batch[0]) == \
            _result_payload(_serial(configs[0]))

    @pytest.mark.parametrize("spec", [
        "aldram(temperature=55)", "lldram(duration_ms=16)",
        "chargecache(duration_ms=16)", "chargecache(entries=2)"])
    def test_each_variant_keeps_its_own_parameters(self, spec):
        """A parameterized term batched after its default term runs
        with its own parameters, not the default's."""
        default = _variant(spec.split("(")[0])
        configs = [default, _variant(spec)]
        batch = System.run_batch(configs, [_trace(default)],
                                 max_mem_cycles=300_000)
        assert _result_payload(batch[1]) == \
            _result_payload(_serial(configs[1]))
        assert _result_payload(batch[1]) != _result_payload(batch[0])

    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    def test_bit_identical_to_serial_on_every_platform(self, platform):
        # A 1 MB footprint has more hot rows than the largest platform
        # has banks, so rows conflict and ChargeCache gets hits.
        footprint = 1024 * 1024
        configs = [tiny_config(mechanism, instruction_limit=1_500,
                               time_scale=0.01, **_platform(platform))
                   for mechanism in ("none", "chargecache", "nuat")]
        batch = System.run_batch(configs, _traces(configs[0], footprint),
                                 max_mem_cycles=300_000)
        for cfg, got in zip(configs, batch):
            assert _result_payload(got) == \
                _result_payload(_serial(cfg, footprint))
            assert got.config == cfg
        assert batch[1].mechanism_hits > 0

    def test_every_channel_owns_its_mechanism(self, monkeypatch):
        """Each variant builds one mechanism per channel, none shared
        with another channel or another variant."""
        mechanisms = []
        init = MemoryController.__init__

        def recorded(controller, *args, **kwargs):
            init(controller, *args, **kwargs)
            mechanisms.append(controller.mechanism)

        monkeypatch.setattr(MemoryController, "__init__", recorded)
        configs = [tiny_config("chargecache", channels=2, time_scale=0.01),
                   tiny_config("chargecache+nuat", channels=2,
                               time_scale=0.01)]
        System.run_batch(configs, [_trace(configs[0])],
                         max_mem_cycles=300_000)
        assert len(mechanisms) == 4
        assert len({id(m) for m in mechanisms}) == 4

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

    @pytest.mark.parametrize("change", [
        {"num_cores": 2}, {"channels": 2},
        {"standard": "DDR4-2400"}, {"row_policy": "closed"},
        {"instruction_limit": 7}, {"warmup": 99}, {"cache_kb": 32}],
        ids=lambda change: next(iter(change)))
    def test_every_platform_field_splits_a_batch(self, change):
        """A change to any platform field is kept by the invariant form
        and refused by ``run_batch``, whichever variant comes first."""
        change = dict(change)
        cache_kb = change.pop("cache_kb", None)
        base = tiny_config("chargecache", time_scale=0.01)
        other = tiny_config("chargecache", time_scale=0.01, **change)
        if cache_kb is not None:
            other = dataclasses.replace(other, cache=dataclasses.replace(
                other.cache, size_bytes=cache_kb * 1024))
        assert mechanism_invariant_config(base) != \
            mechanism_invariant_config(other)
        for pair in ([base, other], [other, base]):
            with pytest.raises(ValueError, match="shared platform"):
                System.run_batch(pair, [_trace(base)])


# ----------------------------------------------------------------------
# What is left of repro.core.replay
# ----------------------------------------------------------------------

class TestReplayStubs:
    """The benchmark tracer wraps these two names by looking them up in
    the module's ``__dict__``; they must exist and stay inert."""

    def test_replay_decisions_match_never_matches(self):
        assert "replay_decisions_match" in vars(replay)
        assert replay.replay_decisions_match([[]], [object()]) is False

    def test_fork_for_replay_forks_nothing(self):
        assert "fork_for_replay" in vars(replay)
        mech = registry.build("chargecache",
                              default_context(num_cores=1))
        assert replay.fork_for_replay(mech, 2) is None
