"""Shared fixtures for the per-figure benchmark suite.

Every benchmark regenerates one table or figure of the paper.  A
benchmark "round" is one full experiment, so everything runs with
``rounds=1`` via :func:`run_once`; the interesting output is the
experiment result stored in ``benchmark.extra_info`` and printed to
stdout (visible with ``pytest benchmarks/ --benchmark-only -s`` and in
the saved benchmark JSON).

Scaling: budgets come from :func:`repro.harness.runner.current_scale`,
so ``REPRO_SCALE=4 pytest benchmarks/ --benchmark-only`` runs 4x longer
simulations (see EXPERIMENTS.md for the scaling used in the recorded
results).

Parallelism: every figure's sweep runs through the shared process pool
(:mod:`repro.harness.pool`).  ``pytest benchmarks/ --jobs 8`` (or
``REPRO_JOBS=8``; ``--jobs 0`` = one worker per CPU) fans each sweep
out over worker processes — per-figure wall-clock then measures the
parallel sweep, which is the number the engine-throughput comparisons
care about.  The default remains serial so recorded single-process
timings stay comparable.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.report import render_experiment
from repro.harness.runner import current_scale


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=None, metavar="N",
        help="fan each figure's sweep over N worker processes "
             "(default: $REPRO_JOBS or serial; 0 = one per CPU); "
             "results are identical for every N")


@pytest.fixture(autouse=True, scope="session")
def _no_persistent_run_cache():
    """Benchmarks measure simulation, so the persistent run cache must
    stay out of the loop: a warm ~/.cache/chargecache-repro would turn
    every recorded figure time into JSON-decode time (and a cold run
    would pollute the user's real cache).  The in-process memo still
    applies — cross-figure run reuse is part of what the harness is."""
    from repro.harness import runner
    with runner.executing(use_run_cache=False):
        yield


@pytest.fixture(autouse=True, scope="session")
def _sweep_jobs(request):
    """Route every figure's sweep through the shared pool at the width
    selected by ``--jobs`` (or, when absent, the ``REPRO_JOBS``
    environment variable that :func:`repro.harness.pool.resolve_jobs`
    consults)."""
    from repro.harness import runner
    with runner.executing(jobs=request.config.getoption("--jobs",
                                                        default=None)):
        yield


@pytest.fixture(scope="session")
def scale():
    return current_scale()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


def record(benchmark, result: dict, **summary) -> None:
    """Attach a JSON summary + human rendering to the benchmark."""
    benchmark.extra_info["experiment"] = result.get("id")
    for key, value in summary.items():
        benchmark.extra_info[key] = value
    # Keep raw rows available in the benchmark JSON output.
    benchmark.extra_info["rows"] = json.loads(
        json.dumps(result.get("rows", []), default=str))
    print()
    print(render_experiment(result))
