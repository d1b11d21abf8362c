"""A finished run frees its graph by reference counting.

``System.run`` ends by cutting every edge that points from the run's
graph back up to the System or the LLC (core issue hooks, the LLC's
notify and clock callbacks, each controller's fill hook).  With the
collector disabled, dropping the System must then free the whole graph
at once: the LLC is dead by reference counting alone and a following
``gc.collect()`` finds no cyclic garbage.  Each case runs a different
part of the graph: both engines, the single-core open-row and
eight-core closed-row platforms, a drained run (the scheduler's last
snapshot names a served read), a truncated run (reads still parked,
queued and in flight), and a batch of capacity variants and NUAT.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.cpu.system import System
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace, zipf_trace

from tests.conftest import tiny_config


@contextmanager
def _collector_off():
    """Collect what earlier tests left, then keep the collector off so
    only reference counting frees what the block drops."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _traces(cfg, bubbles=8.0, write_fraction=0.25):
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    return [random_trace(org, 1 << 21, bubbles, seed=core + 1,
                         write_fraction=write_fraction)
            for core in range(cfg.processor.num_cores)]


def _run_and_drop(cfg, max_mem_cycles=None, **trace_kwargs):
    """Run one System, drop it, and return a weak reference to its LLC."""
    system = System(cfg, _traces(cfg, **trace_kwargs))
    llc = weakref.ref(system.llc)
    result = system.run(max_mem_cycles=max_mem_cycles)
    del system
    return llc, result


PLATFORMS = {
    "single-open": dict(mechanism="chargecache"),
    "eight-closed": dict(mechanism="chargecache", num_cores=8, channels=2,
                         row_policy="closed", instruction_limit=1200,
                         warmup=2000),
}


@pytest.mark.parametrize("engine", ("event", "dense"))
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_finished_run_leaves_no_cyclic_garbage(engine, platform):
    cfg = replace(tiny_config(**PLATFORMS[platform]), engine=engine)
    with _collector_off():
        llc, result = _run_and_drop(cfg)
        assert llc() is None
        assert gc.collect() == 0
    assert not result.truncated


@pytest.mark.parametrize("engine", ("event", "dense"))
def test_drained_run_leaves_no_cyclic_garbage(engine):
    """Sparse loads and no stores: the read queue drains before the
    end, and the scheduler's last snapshot still names the served read
    whose completion has fired."""
    cfg = replace(tiny_config(), engine=engine)
    with _collector_off():
        llc, _ = _run_and_drop(cfg, bubbles=50.0, write_fraction=0.0)
        assert llc() is None
        assert gc.collect() == 0


@pytest.mark.parametrize("engine", ("event", "dense"))
def test_truncated_run_leaves_no_cyclic_garbage(engine):
    """Stopped mid-run with short read queues, the LLC still parks
    refused reads and the controllers hold queued and in-flight ones:
    none of them points back up."""
    cfg = replace(tiny_config(**PLATFORMS["eight-closed"]), engine=engine)
    cfg = replace(cfg, controller=replace(cfg.controller,
                                          read_queue_size=16))
    with _collector_off():
        system = System(cfg, _traces(cfg))
        result = system.run(max_mem_cycles=3_000)
        assert system.llc.retry_reads
        assert all(c.read_q.items and c.read_events
                   for c in system.controllers)
        llc = weakref.ref(system.llc)
        del system
        assert llc() is None
        assert gc.collect() == 0
    assert result.truncated


def test_batch_run_leaves_no_cyclic_garbage(monkeypatch):
    """Every variant of a batch runs in full on its own System, and
    each System's graph is freed as soon as its run ends."""
    llcs = []
    run = System.run

    def watched(system, *args, **kwargs):
        llcs.append(weakref.ref(system.llc))
        return run(system, *args, **kwargs)

    monkeypatch.setattr(System, "run", watched)

    def variant(mechanism, **cc_kwargs):
        return tiny_config(mechanism, instruction_limit=4_000,
                           time_scale=0.01, **cc_kwargs)

    configs = [variant("chargecache", entries=64),
               variant("chargecache", entries=256),
               variant("nuat")]
    org = Organization.from_config(configs[0].dram,
                                   configs[0].cache.line_bytes)
    with _collector_off():
        results = System.run_batch(
            configs, [zipf_trace(org, 128 * 1024, 6.0, 3, alpha=1.8,
                                 write_fraction=0.2)],
            max_mem_cycles=300_000, enable_rltl=True, enable_reuse=True)
        assert len(llcs) == 3
        assert all(llc() is None for llc in llcs)
        assert gc.collect() == 0
    assert len(results) == 3


def test_a_system_runs_once():
    cfg = tiny_config()
    system = System(cfg, _traces(cfg))
    system.run()
    with pytest.raises(RuntimeError, match="runs once"):
        system.run()
