"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    ControllerConfig,
    DRAMConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.core.registry import fill_params
from repro.dram.organization import Organization
from repro.dram.timing import DDR3_1600


@pytest.fixture(autouse=True, scope="session")
def _isolated_run_cache(tmp_path_factory):
    """Point the persistent run cache at a per-session tmp dir.

    The harness's disk layer is read-through by default; without this,
    test runs would populate (and, via clear_caches, wipe) the user's
    real ~/.cache/chargecache-repro.  Tests that exercise specific
    cache directories scope their own binding with
    ``runner.executing(...)``, which restores this one on exit.
    """
    from repro.harness import runner
    with runner.executing(
            cache_dir=str(tmp_path_factory.mktemp("run-cache"))):
        yield
        runner.clear_caches()


@pytest.fixture(scope="session")
def golden_all(tmp_path_factory):
    """One cold ``all`` pass of ``tests/golden/pin_figures.py``'s
    command, shared by the tests that read it: ``(csv_dir, results)``,
    the CSV directory and the ``--json`` results by entry."""
    import json

    from repro.harness import runner
    from tests.golden import pin_figures
    out = tmp_path_factory.mktemp("golden-all")
    csv_dir, json_path = out / "csv", out / "all.json"
    runner.clear_memo()
    with runner.executing():
        pin_figures.regenerate(str(csv_dir), "--json", str(json_path))
    runner.clear_memo()
    return str(csv_dir), json.loads(json_path.read_text())


@pytest.fixture
def timing():
    return DDR3_1600


@pytest.fixture
def small_org():
    """A small organization so tests can sweep entire address spaces."""
    return Organization(channels=1, ranks=1, banks=4, rows=64, columns=8)


@pytest.fixture
def paper_org():
    """The paper's single-channel organization."""
    return Organization(channels=1, ranks=1, banks=8, rows=64 * 1024,
                        columns=128)


def tiny_config(mechanism: str = "none", num_cores: int = 1,
                channels: int = 1,
                standard: str = "DDR3-1600",
                instruction_limit: int = 3000,
                warmup: int = 1000, row_policy: str = "open",
                **cc_kwargs) -> SimulationConfig:
    """A configuration small and fast enough for unit tests.

    Uses a 64 KB LLC so DRAM traffic appears quickly, and a reduced
    DRAM geometry to keep footprints small.  ``standard`` opens the
    timing-grade axis; it alone sets the timing and the CPU/bus clock
    ratio.
    A chargecache term runs at ``time_scale=512`` and gets
    ``cc_kwargs`` as inline parameters, each where the spec does not
    write its own.
    """
    mechanism = fill_params(mechanism, "chargecache",
                            {"time_scale": 512.0, **cc_kwargs})
    cfg = SimulationConfig(
        processor=ProcessorConfig(num_cores=num_cores),
        cache=CacheConfig(size_bytes=64 * 1024, associativity=4),
        dram=DRAMConfig(channels=channels, rows_per_bank=4096,
                        standard=standard),
        controller=ControllerConfig(row_policy=row_policy),
        mechanism=mechanism,
        instruction_limit=instruction_limit,
        warmup_cpu_cycles=warmup,
    )
    cfg.validate()
    return cfg
