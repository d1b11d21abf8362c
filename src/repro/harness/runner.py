"""Run management for the experiment harness.

Centralises:

* **Scaling** - the paper simulates 1B instructions per core; a Python
  simulator cannot.  :class:`Scale` (see :mod:`repro.harness.spec`)
  holds the instruction budgets and the time-scale used for RLTL
  intervals and ChargeCache invalidation pacing (see DESIGN.md).  The
  environment variables ``REPRO_SCALE`` (float multiplier on
  instruction budgets) and ``REPRO_FULL=1`` (8x budgets) adjust every
  experiment uniformly.
* **Config construction** - the paper's single-core (1 channel,
  open-row) and eight-core (2 channels, closed-row) systems.
* **Run caching** - every run is described by a
  :class:`~repro.harness.spec.RunSpec` and served through two
  read-through layers: an in-process memo dict, then the persistent
  content-addressed store of :mod:`repro.harness.cache`.  Weighted
  speedup needs each application's alone-IPC, which would otherwise be
  recomputed by every experiment; the persistent layer extends the
  same guarantee across processes, pool workers and CI reruns.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import (
    ChargeCacheConfig,
    ExecutionConfig,
    SimulationConfig,
    eight_core_config,
    single_core_config,
)
from repro.cpu.system import RunResult, System
from repro.dram.organization import Organization
from repro.harness import cache as run_cache
from repro.harness.spec import (  # noqa: F401  (re-exported API)
    DEFAULT_CC_TIME_SCALE,
    DEFAULT_TIME_SCALE,
    RunSpec,
    Scale,
    current_scale,
)
from repro.stats.metrics import weighted_speedup
from repro.workloads.mixes import make_mix_traces, mix_composition
from repro.workloads.spec_like import make_trace

#: Engine used when a run does not name one explicitly; ``None`` keeps
#: :class:`SimulationConfig`'s own default ("event").  The CLI's
#: ``--engine`` flag overrides it process-wide via
#: :func:`set_default_engine`.
_default_engine: Optional[str] = None


def set_default_engine(engine: Optional[str]) -> None:
    """Select the simulation engine for every subsequent harness run.

    ``engine`` is "event", "dense", or None (restore the config
    default).  Results are memoised per engine, so switching engines
    never returns a stale cross-engine result.
    """
    global _default_engine
    if engine is not None:
        from repro.config import ENGINES
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
    _default_engine = engine


def _resolve_engine(engine: Optional[str]) -> str:
    """Resolve to a concrete engine name.

    Always concrete (never None) so memo keys for "engine left default"
    and "engine named explicitly" collide onto one cache entry.
    """
    if engine is not None:
        return engine
    if _default_engine is not None:
        return _default_engine
    from repro.config import DEFAULT_ENGINE
    return DEFAULT_ENGINE


# ----------------------------------------------------------------------
# Config construction
# ----------------------------------------------------------------------

def build_config(mode: str, mechanism: str, scale: Optional[Scale] = None,
                 cc_entries: Optional[int] = None,
                 cc_duration_ms: Optional[float] = None,
                 cc_sharing: Optional[str] = None,
                 cc_unbounded: bool = False,
                 row_policy: Optional[str] = None,
                 engine: Optional[str] = None) -> SimulationConfig:
    """A paper-faithful configuration for one run.

    ``mode`` is "single" (1 core, 1 channel, open-row) or "eight"
    (8 cores, 2 channels, closed-row).  ``mechanism`` is a registry
    spec: plain names, ``+``-compositions and inline parameter
    overrides (``"chargecache(entries=256)+nuat"``) are all accepted
    and normalized.  The ChargeCache keyword knobs cover the capacity
    (Fig. 9/10) and caching-duration (Fig. 11) sweeps and are
    interchangeable with the equivalent inline parameters; the
    duration also selects the matching timing reductions from the
    paper's Table 2 derating.
    """
    from repro.core import registry
    mechanism, cc_entries, cc_duration_ms, cc_unbounded = \
        registry.extract_run_params(mechanism, cc_entries,
                                    cc_duration_ms, cc_unbounded)
    scale = scale or current_scale()
    if mode == "single":
        cfg = single_core_config(mechanism)
        instructions = scale.single_core_instructions
    elif mode == "eight":
        cfg = eight_core_config(mechanism)
        instructions = scale.multi_core_instructions
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'single' or 'eight'")

    cc = cfg.chargecache
    duration = cc_duration_ms if cc_duration_ms is not None \
        else cc.caching_duration_ms
    # Shared Table 2 derating (exact for the DDR3 timing these
    # paper-faithful modes use).
    from repro.dram.standards import derated_reduction_cycles
    from repro.dram.timing import DDR3_1600
    trcd_red, tras_red = derated_reduction_cycles(DDR3_1600, duration)
    cc = ChargeCacheConfig(
        entries=cc_entries if cc_entries is not None else cc.entries,
        associativity=cc.associativity,
        caching_duration_ms=duration,
        trcd_reduction_cycles=trcd_red,
        tras_reduction_cycles=tras_red,
        sharing=cc_sharing if cc_sharing is not None else cc.sharing,
        unbounded=cc_unbounded,
        time_scale=scale.cc_time_scale,
    )
    cfg = replace(cfg, chargecache=cc,
                  instruction_limit=instructions,
                  warmup_cpu_cycles=scale.warmup_cpu_cycles)
    if row_policy is not None:
        cfg = replace(cfg, controller=replace(cfg.controller,
                                              row_policy=row_policy))
    cfg = replace(cfg, engine=_resolve_engine(engine))
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# Spec construction (normalisation lives here so that experiments,
# the pool and direct run_* calls all produce byte-identical keys)
# ----------------------------------------------------------------------

def _build_spec(kind: str, name: str, mechanism: str,
                scale: Optional[Scale], engine: Optional[str],
                **kwargs) -> RunSpec:
    """Normalise scale/engine/mechanism into a concrete spec (single
    source of truth, so every entry path produces byte-identical cache
    keys).

    The mechanism spec is canonicalized through the registry: terms
    sorted into canonical order, inline chargecache
    ``entries``/``duration_ms``/``unbounded`` parameters folded into
    the dedicated RunSpec fields (merging with — and conflict-checked
    against — the legacy ``cc_*`` keyword arguments), so
    ``"nuat+chargecache(entries=256)"`` and ``("chargecache+nuat",
    cc_entries=256)`` are one spec, one memo entry, one cache key.
    """
    from repro.core import registry
    mechanism, cc_entries, cc_duration_ms, cc_unbounded = \
        registry.extract_run_params(mechanism,
                                    kwargs.pop("cc_entries", None),
                                    kwargs.pop("cc_duration_ms", None),
                                    kwargs.pop("cc_unbounded", False))
    return RunSpec(kind=kind, name=name, mechanism=mechanism,
                   scale=scale or current_scale(),
                   engine=_resolve_engine(engine),
                   cc_entries=cc_entries, cc_duration_ms=cc_duration_ms,
                   cc_unbounded=cc_unbounded, **kwargs)


def workload_spec(name: str, mechanism: str = "none",
                  scale: Optional[Scale] = None, *,
                  engine: Optional[str] = None, **kwargs) -> RunSpec:
    """Spec for one workload on the single-core system."""
    return _build_spec("single", name, mechanism, scale, engine, **kwargs)


def mix_spec(mix: str, mechanism: str = "none",
             scale: Optional[Scale] = None, *,
             engine: Optional[str] = None, **kwargs) -> RunSpec:
    """Spec for one 8-application mix on the eight-core system."""
    return _build_spec("eight", mix, mechanism, scale, engine, **kwargs)


def alone_spec(name: str, scale: Optional[Scale] = None, *,
               seed: int = 1, engine: Optional[str] = None) -> RunSpec:
    """Spec for one application alone on the eight-core platform."""
    return _build_spec("alone", name, "none", scale, engine, seed=seed)


def scenario_spec(scenario: str, name: str, mechanism: str = "none",
                  scale: Optional[Scale] = None, *,
                  engine: Optional[str] = None, **kwargs) -> RunSpec:
    """Spec for one workload/mix on a named scale-out scenario.

    The scenario (and the workload) are validated eagerly so a typo
    fails at declaration time, not inside a pool worker mid-sweep.
    """
    from repro.harness import scenarios
    scen = scenarios.scenario(scenario)
    scenarios.scenario_workload_names(scen, name)
    return _build_spec("scenario", name, mechanism, scale, engine,
                       scenario=scenario, **kwargs)


def trace_spec(path: str, mechanism: str = "none",
               scale: Optional[Scale] = None, *,
               name: Optional[str] = None,
               engine: Optional[str] = None, **kwargs) -> RunSpec:
    """Spec for an ingested external trace on the single-core system.

    The file is hashed here (SHA-256 of its bytes) and the digest -
    not the path - becomes cache-key material, so the same trace
    content is one cached run wherever the file lives, and editing the
    file yields a fresh key.  ``name`` defaults to the file's stem and
    is key material too: it names the workload in reports, and two
    differently-named ingests of the same bytes are deliberately
    distinct rows.
    """
    from repro.workloads.ingest import trace_file_sha256
    digest = trace_file_sha256(path)
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return _build_spec("trace", name, mechanism, scale, engine,
                       trace_sha256=digest,
                       trace_path=os.path.abspath(path), **kwargs)


def alone_specs_for_mix(mix: str, scale: Optional[Scale] = None, *,
                        seed: int = 1,
                        engine: Optional[str] = None) -> List[RunSpec]:
    """Alone-run specs for every application in ``mix`` (for WS)."""
    scale = scale or current_scale()
    return [alone_spec(name, scale, seed=seed, engine=engine)
            for name in mix_composition(mix)]


# ----------------------------------------------------------------------
# Two-layer read-through cache
# ----------------------------------------------------------------------

_run_cache: Dict[RunSpec, RunResult] = {}

#: Persistent-layer binding.  ``None`` dir means "resolve the default
#: at first use" (env var or ~/.cache); tests point it at tmp dirs.
_disk_enabled: bool = True
_disk_dir: Optional[str] = None
_disk: Optional[run_cache.RunCache] = None

#: Default pool width for sweeps whose caller passed jobs=None;
#: consulted by :func:`repro.harness.pool.resolve_jobs` before the
#: ``REPRO_JOBS`` environment variable.
default_jobs: Optional[int] = None


def configure_disk_cache(path: Optional[str] = None,
                         enabled: bool = True) -> None:
    """(Re)bind the persistent store layer.

    ``path`` is the store directory; ``None`` restores
    default-directory resolution; ``enabled=False`` bypasses the
    persistent layer entirely (the in-memory memo still applies).
    Rebinding always drops the current store instance, so the next
    run re-resolves the directory.
    """
    global _disk_enabled, _disk_dir, _disk
    _disk_enabled = enabled
    _disk_dir = path
    _disk = None


def apply_execution_config(execution: ExecutionConfig) -> None:
    """Thread a config-level execution policy into the harness.

    Honours every :class:`ExecutionConfig` field: the cache binding
    (``cache_dir``/``use_run_cache``) and the default sweep pool width
    (``jobs``, picked up by :func:`repro.harness.pool.resolve_jobs`
    whenever a caller does not pass an explicit width).
    """
    global default_jobs
    execution.validate()
    configure_disk_cache(execution.cache_dir,
                         enabled=execution.use_run_cache)
    default_jobs = execution.jobs


def active_disk_cache() -> Optional[run_cache.RunCache]:
    """The bound persistent store, or None when disabled."""
    global _disk
    if not _disk_enabled or os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    if _disk is None:
        _disk = run_cache.RunCache(_disk_dir)
    return _disk


def clear_memo() -> None:
    """Drop only the in-process memo (the disk layer keeps its entries)."""
    _run_cache.clear()


def clear_caches() -> None:
    """Drop memoised run results, both layers (tests use this for
    isolation).

    The in-memory memo is emptied; an **explicitly bound** persistent
    cache (:func:`configure_disk_cache` with a path, the CLI's
    ``--cache-dir``) has its entries deleted too, and the lazy binding
    is reset so a subsequent rebind or env change takes effect cleanly.
    The *default* directory (``~/.cache/chargecache-repro`` or
    ``$REPRO_CACHE_DIR``) is deliberately never deleted here: a library
    caller asking for a fresh in-process state must not destroy hours
    of persisted sweep results; content-addressed entries can never go
    stale, so correctness never requires deleting them (use
    ``RunCache(...).clear()`` to reclaim space explicitly).
    """
    global _disk
    _run_cache.clear()
    if _disk_dir is not None:
        disk = active_disk_cache()
        if disk is not None:
            disk.clear()
    _disk = None


def _install(spec: RunSpec, result: RunResult) -> None:
    """Back-fill the in-process memo (pool results re-enter here)."""
    _run_cache[spec] = result


def run_spec_ex(spec: RunSpec) -> Tuple[RunResult, str]:
    """Execute (or recall) one spec; returns (result, source).

    ``source`` is "memory" (in-process memo), "disk" (persistent
    cache) or "computed" (simulated now; persisted when the disk layer
    is enabled).
    """
    result = _run_cache.get(spec)
    if result is not None:
        return result, "memory"
    disk = active_disk_cache()
    key = run_cache.cache_key(spec) if disk is not None else None
    if disk is not None:
        result = disk.get(key)
        if result is not None:
            _run_cache[spec] = result
            return result, "disk"
    result = _execute_spec(spec)
    _run_cache[spec] = result
    if disk is not None:
        try:
            disk.put(key, spec, result)
        except Exception:
            # Persistence is best-effort: an unwritable cache dir or an
            # unserialisable result degrades to memo-only, never fails
            # the run that just completed.
            pass
    return result, "computed"


def run_spec(spec: RunSpec) -> RunResult:
    """Execute (or recall) one spec through both cache layers."""
    return run_spec_ex(spec)[0]


def _spec_config(spec: RunSpec) -> SimulationConfig:
    """The :class:`SimulationConfig` one spec resolves to."""
    scale = spec.scale
    if spec.kind == "scenario":
        from repro.harness import scenarios
        cfg = scenarios.scenario_config(
            spec.scenario, spec.mechanism, scale,
            cc_entries=spec.cc_entries,
            cc_duration_ms=spec.cc_duration_ms,
            cc_unbounded=spec.cc_unbounded,
            engine=spec.engine)
        if spec.row_policy is not None:
            cfg = replace(cfg, controller=replace(
                cfg.controller, row_policy=spec.row_policy))
    elif spec.kind == "alone":
        cfg = eight_core_config("none")
        cfg = replace(cfg,
                      processor=replace(cfg.processor, num_cores=1),
                      instruction_limit=scale.multi_core_instructions,
                      warmup_cpu_cycles=scale.warmup_cpu_cycles,
                      engine=spec.engine)
    else:
        # "trace" runs replay an ingested file on the paper's
        # single-core platform (1 channel, open-row); everything else
        # maps its own kind straight onto build_config's mode.
        mode = "single" if spec.kind == "trace" else spec.kind
        cfg = build_config(mode, spec.mechanism, scale,
                           cc_entries=spec.cc_entries,
                           cc_duration_ms=spec.cc_duration_ms,
                           cc_unbounded=spec.cc_unbounded,
                           row_policy=spec.row_policy,
                           engine=spec.engine)
    if spec.idle_finished and spec.kind != "alone":
        cfg = replace(cfg, idle_finished_cores=True)
    return cfg


def _spec_traces(spec: RunSpec, cfg: SimulationConfig) -> list:
    """The per-core trace iterators one spec simulates.

    Traces depend only on the spec's non-mechanism fields (workload
    name, seed, scenario, DRAM organization), so every member of a
    batch group — same :func:`~repro.harness.spec.batch_signature` —
    produces the identical trace set; the batch path builds it once
    from the group's first spec.
    """
    org = Organization.from_config(cfg.dram, cfg.cache.line_bytes)
    if spec.kind == "scenario":
        from repro.harness import scenarios
        scen = scenarios.scenario(spec.scenario)
        return scenarios.scenario_traces(scen, spec.name, org,
                                         seed=spec.seed)
    if spec.kind == "trace":
        return [_load_trace_records(spec, org)]
    if spec.kind in ("alone", "single"):
        return [make_trace(spec.name, org, seed=spec.seed)]
    return make_mix_traces(spec.name, org, seed=spec.seed)


def _load_trace_records(spec: RunSpec, org: Organization):
    """Ingest and loop the external trace file a "trace" spec names.

    The file is re-hashed and must still match the spec's
    ``trace_sha256`` - the digest is the cache key's workload
    identity, so replaying different bytes under it would poison the
    content-addressed store.  A spec without a local path (e.g.
    rebuilt from a stored envelope's payload) can be answered from the
    cache but not simulated.
    """
    from repro.cpu.trace import looped
    from repro.workloads.ingest import ingest_trace_file
    if spec.trace_path is None:
        raise ValueError(
            f"trace spec {spec.label()!r} has no trace_path; rebuild "
            "it with trace_spec(path) to simulate (cache lookups work "
            "without one)")
    records = ingest_trace_file(spec.trace_path, org,
                                expected_sha256=spec.trace_sha256)
    return looped(records)


def _spec_rltl(spec: RunSpec) -> Tuple[bool, float]:
    """(enable_rltl, rltl_time_scale) exactly as each kind always ran:
    alone runs never attach the probe and keep System's default
    time-scale, so refactoring must not silently change their keys'
    results."""
    if spec.kind == "alone":
        return False, 1.0
    return spec.enable_rltl, spec.scale.time_scale


def _execute_spec(spec: RunSpec) -> RunResult:
    """Actually simulate one spec (no caching)."""
    cfg = _spec_config(spec)
    enable_rltl, rltl_time_scale = _spec_rltl(spec)
    system = System(cfg, _spec_traces(spec, cfg),
                    enable_rltl=enable_rltl,
                    rltl_time_scale=rltl_time_scale)
    return system.run(max_mem_cycles=spec.scale.max_mem_cycles)


class BatchIncompatible(ValueError):
    """A spec group cannot share one batched trace replay."""


def run_spec_batch(specs: Iterable[RunSpec],
                   telemetry: Optional[Dict] = None) -> List[RunResult]:
    """Simulate a batch group through one shared trace replay.

    Every spec must share one :func:`~repro.harness.spec.batch_signature`
    (same workload, seed, scale, engine, platform — different mechanism
    knobs only); otherwise :class:`BatchIncompatible` is raised before
    any simulation starts, and the caller falls back to serial
    execution.  Results are bit-identical to :func:`run_spec` on each
    spec individually (enforced by ``System.run_batch``'s decision-
    replay contract) and are installed into both cache layers under
    each spec's own, unchanged cache key — a later serial run of any
    member is a plain cache hit.
    """
    from repro.harness.spec import batch_signature
    specs = list(specs)
    if not specs:
        return []
    signature = batch_signature(specs[0])
    for spec in specs[1:]:
        if batch_signature(spec) != signature:
            raise BatchIncompatible(
                f"specs {specs[0].label()!r} and {spec.label()!r} "
                "differ outside their mechanism fields")
    configs = [_spec_config(spec) for spec in specs]
    enable_rltl, rltl_time_scale = _spec_rltl(specs[0])
    try:
        results = System.run_batch(
            configs, _spec_traces(specs[0], configs[0]),
            max_mem_cycles=specs[0].scale.max_mem_cycles,
            enable_rltl=enable_rltl,
            rltl_time_scale=rltl_time_scale,
            telemetry=telemetry)
    except ValueError as exc:
        # The signature check above should make this unreachable; keep
        # run_batch's own platform guard surfaced as the same
        # fall-back-to-serial signal rather than a sweep failure.
        raise BatchIncompatible(str(exc)) from exc
    disk = active_disk_cache()
    for spec, result in zip(specs, results):
        _run_cache[spec] = result
        if disk is not None:
            try:
                disk.put(run_cache.cache_key(spec), spec, result)
            except Exception:
                pass
    return results


# ----------------------------------------------------------------------
# Cached runs (the classic entry points; now thin spec wrappers)
# ----------------------------------------------------------------------

def run_workload(name: str, mechanism: str = "none",
                 scale: Optional[Scale] = None,
                 enable_rltl: bool = False,
                 row_policy: Optional[str] = None,
                 cc_entries: Optional[int] = None,
                 cc_duration_ms: Optional[float] = None,
                 cc_unbounded: bool = False,
                 idle_finished: bool = False,
                 seed: int = 1,
                 engine: Optional[str] = None) -> RunResult:
    """Run one workload on the single-core system (memoised)."""
    return run_spec(workload_spec(
        name, mechanism, scale, enable_rltl=enable_rltl,
        row_policy=row_policy, cc_entries=cc_entries,
        cc_duration_ms=cc_duration_ms, cc_unbounded=cc_unbounded,
        idle_finished=idle_finished, seed=seed, engine=engine))


def run_mix(mix: str, mechanism: str = "none",
            scale: Optional[Scale] = None,
            enable_rltl: bool = False,
            row_policy: Optional[str] = None,
            cc_entries: Optional[int] = None,
            cc_duration_ms: Optional[float] = None,
            cc_unbounded: bool = False,
            idle_finished: bool = False,
            seed: int = 1,
            engine: Optional[str] = None) -> RunResult:
    """Run one 8-core mix on the eight-core system (memoised)."""
    return run_spec(mix_spec(
        mix, mechanism, scale, enable_rltl=enable_rltl,
        row_policy=row_policy, cc_entries=cc_entries,
        cc_duration_ms=cc_duration_ms, cc_unbounded=cc_unbounded,
        idle_finished=idle_finished, seed=seed, engine=engine))


def run_alone(name: str, scale: Optional[Scale] = None,
              seed: int = 1, engine: Optional[str] = None) -> RunResult:
    """One application alone on the eight-core platform (for WS)."""
    return run_spec(alone_spec(name, scale, seed=seed, engine=engine))


def run_trace(path: str, mechanism: str = "none",
              scale: Optional[Scale] = None, *,
              engine: Optional[str] = None, **kwargs) -> RunResult:
    """Replay an ingested external trace file (memoised by content)."""
    return run_spec(trace_spec(path, mechanism, scale, engine=engine,
                               **kwargs))


def run_scenario(scenario: str, name: str, mechanism: str = "none",
                 scale: Optional[Scale] = None, *,
                 engine: Optional[str] = None, **kwargs) -> RunResult:
    """Run one workload/mix on a named scenario (memoised)."""
    return run_spec(scenario_spec(scenario, name, mechanism, scale,
                                  engine=engine, **kwargs))


def alone_ipcs_for_mix(mix: str, scale: Optional[Scale] = None,
                       seed: int = 1) -> List[float]:
    """Alone-IPC of each application in a mix (shared cache)."""
    ipcs = []
    for core_id, name in enumerate(mix_composition(mix)):
        # The alone run does not depend on core placement, so seed it
        # the way run_mix seeds core 0 for reproducibility.
        del core_id
        ipcs.append(run_alone(name, scale, seed=seed).total_ipc)
    return ipcs


def mix_weighted_speedup(mix: str, mechanism: str,
                         scale: Optional[Scale] = None,
                         seed: int = 1, **kwargs) -> float:
    """Weighted speedup of one mix under a mechanism."""
    shared = run_mix(mix, mechanism, scale, seed=seed, **kwargs)
    alone = alone_ipcs_for_mix(mix, scale, seed=seed)
    return weighted_speedup(shared.ipcs, alone)


def geometric_like_mean(values: Iterable[float]) -> float:
    """Arithmetic mean (the paper averages speedups arithmetically)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
