"""Tests for probe composition and system-level probe wiring."""

import pytest

from repro.core.chargecache import chargecache_params
from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.stats.probes import CompositeProbe
from repro.stats.reuse import RowReuseProfiler
from repro.workloads.synthetic import zipf_trace

from tests.conftest import tiny_config


class Recorder:
    def __init__(self):
        self.events = []

    def on_activate(self, *args):
        self.events.append(("act", args))

    def on_precharge(self, *args):
        self.events.append(("pre", args))

    def reset(self):
        self.events.clear()


class TestCompositeProbe:
    def test_broadcasts_to_all(self):
        a, b = Recorder(), Recorder()
        probe = CompositeProbe([a, b])
        probe.on_activate(0, 0, 1, 42, 100)
        probe.on_precharge(0, 0, 1, 42, 200)
        assert len(a.events) == len(b.events) == 2

    def test_reset_propagates(self):
        a = Recorder()
        probe = CompositeProbe([a])
        probe.on_activate(0, 0, 0, 0, 0)
        probe.reset()
        assert not a.events

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeProbe([])

    def test_iterable(self):
        a, b = Recorder(), RowReuseProfiler()
        assert list(CompositeProbe([a, b])) == [a, b]


class TestSystemWiring:
    def _run(self, **kwargs):
        cfg = tiny_config(instruction_limit=2500)
        org = Organization.from_config(cfg.dram)
        system = System(cfg, [zipf_trace(org, 1 << 21, 8.0, seed=2)],
                        **kwargs)
        return system.run(max_mem_cycles=400_000)

    def test_reuse_probe_attached(self):
        result = self._run(enable_reuse=True)
        assert result.reuse is not None
        assert result.reuse.activations == result.activations

    def test_both_probes_see_same_stream(self):
        result = self._run(enable_rltl=True, enable_reuse=True,
                           rltl_time_scale=512.0)
        assert result.rltl.activations == result.reuse.activations

    def test_probes_off_by_default(self):
        result = self._run()
        assert result.rltl is None
        assert result.reuse is None

    def test_reuse_prediction_bounds_measured_hit_rate(self):
        """Fully-associative LRU prediction upper-bounds the measured
        2-way, periodically-invalidated HCRAC at equal capacity."""
        cfg = tiny_config(mechanism="chargecache", instruction_limit=4000)
        org = Organization.from_config(cfg.dram)
        system = System(cfg, [zipf_trace(org, 1 << 21, 8.0, seed=2)],
                        enable_reuse=True)
        result = system.run(max_mem_cycles=400_000)
        predicted = result.reuse.predicted_hit_rate(
            chargecache_params(cfg.mechanism).entries)
        assert result.mechanism_hit_rate <= predicted + 0.08
