"""Run management for the experiment harness.

Centralises:

* **Scaling** - the paper simulates 1B instructions per core; a Python
  simulator cannot.  :class:`Scale` (see :mod:`repro.harness.spec`)
  holds the instruction budgets and the time-scale used for RLTL
  intervals and ChargeCache invalidation pacing (see DESIGN.md).  The
  environment variable ``REPRO_SCALE`` (float multiplier on
  instruction budgets) adjusts every experiment uniformly.
* **Config construction** - one builder, :func:`build_config`, for
  every platform of :data:`PLATFORMS`: the paper's single-core
  (1 channel, open-row) and eight-core (2 channels, closed-row)
  systems, ``c1-r1`` and ``c8-r1``, and the single-core system on the
  two other standards Section 7.2 names.
* **Run caching** - every run is described by a
  :class:`~repro.harness.spec.RunSpec` and served through two
  read-through layers: an in-process memo dict, then the persistent
  content-addressed store of :mod:`repro.harness.cache`.  Weighted
  speedup needs each application's alone-IPC, which would otherwise be
  recomputed by every experiment; the persistent layer extends the
  same guarantee across processes, pool workers and CI reruns.
* **Execution** - how runs execute (pool width, store, engine,
  progress) is one frozen
  :class:`Execution` value, :data:`execution`.  Entry points install a
  whole value with :func:`set_execution`; tests and embedders scope
  changes with :func:`executing`.
* **Imports** - only the two functions that simulate,
  :func:`_execute_spec` and :func:`run_spec_batch`, import the
  cycle-level model (:mod:`repro.cpu.system` and the cores, LLC,
  controller and DRAM channel it pulls in).  Building specs and
  configs, keying, recalling and remembering results load none of it,
  so a process served from the memo or the store never compiles it
  (DESIGN.md section 3).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import (
    DEFAULT_ENGINE,
    ENGINES,
    ControllerConfig,
    DRAMConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.cpu.result import RunResult
from repro.dram.organization import Organization
from repro.harness import cache as run_cache
from repro.harness.spec import (  # noqa: F401  (re-exported API)
    DEFAULT_CC_TIME_SCALE,
    DEFAULT_TIME_SCALE,
    RunSpec,
    Scale,
    current_scale,
)
from repro.workloads.mixes import make_mix_traces, mix_composition
# The benchmark tracer wraps both trace builders by their names here.
from repro.workloads.spec_like import make_trace  # noqa: F401


@dataclass(frozen=True)
class Execution:
    """How the harness executes runs — never *what* a run computes.

    None of these fields reach a run-cache key (DESIGN.md section 4)
    except ``engine``, which only picks the default for specs that do
    not name one; a result computed with ``jobs=8`` satisfies a later
    ``jobs=1`` request and vice versa.

    * ``jobs`` - sweep pool width; ``None`` defers to ``REPRO_JOBS``
      (default 1 = serial), ``0`` means one worker per CPU.
    * ``cache_dir`` / ``use_run_cache`` - the persistent store
      directory (``None`` = ``REPRO_CACHE_DIR`` or
      ``~/.cache/chargecache-repro``) and whether to use it at all;
      ``REPRO_NO_CACHE=1`` disables it regardless.
    * ``engine`` - simulation engine of specs built without one.
    * ``progress`` - per-point sweep callback ``(done, total, point)``.
    """

    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    use_run_cache: bool = True
    engine: str = DEFAULT_ENGINE
    progress: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one per CPU)")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")


#: The current execution; replace it whole with :func:`set_execution`.
execution = Execution()

#: The persistent store opened from ``execution`` on first use.
_disk: Optional[run_cache.RunCache] = None


def set_execution(new: Execution) -> None:
    """Install ``new`` as the harness's execution.

    The opened store is dropped only when the store binding
    (``cache_dir`` / ``use_run_cache``) changes, so the next run
    re-resolves the directory.
    """
    global execution, _disk
    if (new.cache_dir, new.use_run_cache) != \
            (execution.cache_dir, execution.use_run_cache):
        _disk = None
    execution = new


@contextmanager
def executing(**changes) -> Iterator[Execution]:
    """Run a block under ``execution`` with ``changes`` applied; on
    exit the value current before the block comes back, even if the
    block installed another."""
    previous = execution
    set_execution(replace(previous, **changes))
    try:
        yield execution
    finally:
        set_execution(previous)


def set_default_engine(engine: Optional[str]) -> None:
    """Select the engine of specs built without one (None = config
    default).  Results are memoised per engine, so switching engines
    never returns a stale cross-engine result."""
    set_execution(replace(execution, engine=engine or DEFAULT_ENGINE))


def _resolve_engine(engine: Optional[str]) -> str:
    """Resolve to a concrete engine name.

    Always concrete (never None) so memo keys for "engine left default"
    and "engine named explicitly" collide onto one cache entry.
    """
    return engine if engine is not None else execution.engine


# ----------------------------------------------------------------------
# Platforms and config construction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Platform:
    """One system platform: everything a run fixes but its workload
    and mechanism.  Every platform has Table 1's one rank per channel
    (:data:`repro.config.RANKS_PER_CHANNEL`)."""

    name: str
    num_cores: int
    channels: int
    standard: str
    row_policy: str


#: Every platform by name.  ``c1-r1`` and ``c8-r1`` are the paper's
#: DDR3-1600 systems (Table 1); the other two are the single-core
#: system on the DDR4 and LPDDR3 grades, on which Section 7.2 argues
#: ChargeCache applies unchanged
#: (``benchmarks/bench_section7_extensions.py`` runs them).
PLATFORMS: Dict[str, Platform] = {plat.name: plat for plat in (
    Platform("c1-r1", 1, 1, "DDR3-1600", "open"),
    Platform("c8-r1", 8, 2, "DDR3-1600", "closed"),
    Platform("ddr4-2400-c1", 1, 1, "DDR4-2400", "open"),
    Platform("lpddr3-1600-c1", 1, 1, "LPDDR3-1600", "open"),
)}

#: The platform of each run kind.  The paper's single-core system
#: runs an application ("single") or an ingested trace ("trace"); its
#: eight-core system runs a mix ("eight") or one application alone on
#: one of its cores ("alone", the weighted-speedup denominator).
KIND_PLATFORMS = {"single": "c1-r1", "trace": "c1-r1",
                  "eight": "c8-r1", "alone": "c8-r1"}


def platform(name: str) -> Platform:
    """The platform a run kind of :data:`KIND_PLATFORMS` or a platform
    name stands for."""
    found = PLATFORMS.get(KIND_PLATFORMS.get(name, name))
    if found is None:
        raise ValueError(
            f"unknown platform {name!r}; expected a run kind "
            f"{sorted(KIND_PLATFORMS)} or a platform {sorted(PLATFORMS)}")
    return found


def build_config(platform_name: str, mechanism: str,
                 scale: Optional[Scale] = None, *,
                 row_policy: Optional[str] = None,
                 engine: Optional[str] = None) -> SimulationConfig:
    """A validated configuration for one run on ``platform_name``.

    ``platform_name`` is a :data:`PLATFORMS` name or a run kind of
    :data:`KIND_PLATFORMS`: "single" is the paper's single-core system
    (``c1-r1``), "eight" its eight-core system (``c8-r1``).  The DRAM
    block carries the platform's geometry and timing standard (bus
    frequency included, so the CPU/DRAM clock ratio is right on every
    grade).  ``row_policy`` overrides the platform's own policy.

    ``mechanism`` is a registry spec: plain names, ``+``-compositions
    and inline parameter overrides (``"chargecache(entries=256)+nuat"``)
    are all accepted.  The config's mechanism spec is the one home of
    the run's mechanism parameters: a chargecache term gets
    ``time_scale=scale.cc_time_scale``, which the spec may not write.
    A term's duration selects the paper's Table 2 derating on the
    standard (:func:`repro.dram.standards.derated_reduction_cycles`).
    """
    from repro.core import registry
    registry.refuse_time_scale(mechanism)
    plat = platform(platform_name)
    scale = scale or current_scale()
    mechanism = registry.fill_params(mechanism, "chargecache", {
        "time_scale": scale.cc_time_scale})
    cfg = SimulationConfig(
        processor=ProcessorConfig(num_cores=plat.num_cores),
        dram=DRAMConfig(channels=plat.channels, standard=plat.standard),
        controller=ControllerConfig(
            row_policy=row_policy or plat.row_policy),
        mechanism=mechanism,
        instruction_limit=(scale.single_core_instructions
                           if plat.num_cores == 1
                           else scale.multi_core_instructions),
        warmup_cpu_cycles=scale.warmup_cpu_cycles,
        engine=_resolve_engine(engine),
    )
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# Spec construction (a RunSpec normalizes itself; the constructors only
# fill in the ambient scale and engine)
# ----------------------------------------------------------------------

def _build_spec(kind: str, name: str, mechanism: str,
                scale: Optional[Scale], engine: Optional[str],
                **kwargs) -> RunSpec:
    """A spec with the ambient defaults filled in: the current scale
    and the execution's engine.  Every spec constructor funnels
    through here; :class:`RunSpec` itself canonicalizes the rest."""
    return RunSpec(kind=kind, name=name, mechanism=mechanism,
                   scale=scale or current_scale(),
                   engine=_resolve_engine(engine), **kwargs)


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


def configure_disk_cache(path: Optional[str] = None,
                         enabled: bool = True) -> None:
    """Bind the persistent store to ``path`` (None = default-directory
    resolution), or bypass it with ``enabled=False`` (the in-memory
    memo still applies)."""
    set_execution(replace(execution, cache_dir=path,
                          use_run_cache=enabled))


def active_disk_cache() -> Optional[run_cache.RunCache]:
    """The bound persistent store, or None when disabled."""
    global _disk
    if not execution.use_run_cache \
            or os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    if _disk is None:
        _disk = run_cache.RunCache(execution.cache_dir)
    return _disk


def clear_memo() -> None:
    """Drop only the in-process memo (the disk layer keeps its entries)."""
    _run_cache.clear()


def clear_caches() -> None:
    """Drop memoised run results, both layers (tests use this for
    isolation).

    The in-memory memo is emptied; an **explicitly bound** persistent
    cache (``Execution.cache_dir``, the CLI's ``--cache-dir``) has its
    entries deleted too, and the opened store is dropped so a
    subsequent env change takes effect cleanly.
    The *default* directory (``~/.cache/chargecache-repro`` or
    ``$REPRO_CACHE_DIR``) is deliberately never deleted here: a library
    caller asking for a fresh in-process state must not destroy hours
    of persisted sweep results; content-addressed entries can never go
    stale, so correctness never requires deleting them (use
    ``RunCache(...).clear()`` to reclaim space explicitly).
    """
    global _disk
    _run_cache.clear()
    if execution.cache_dir is not None:
        disk = active_disk_cache()
        if disk is not None:
            disk.clear()
    _disk = None


def recall(spec: RunSpec
           ) -> Tuple[Optional[RunResult], str, Optional[str]]:
    """``(result, source, key)`` of ``spec`` from the memo ("memory")
    or the store ("disk", back-filling the memo); on a miss ``result``
    is None and ``source`` "computed".  ``key`` is the store key when
    the store was probed (else None), so a caller that goes on to
    simulate stores the result without hashing the spec again.
    """
    result = _run_cache.get(spec)
    if result is not None:
        return result, "memory", None
    disk = active_disk_cache()
    if disk is None:
        return None, "computed", None
    key = run_cache.cache_key(spec)
    result = disk.get(key)
    if result is None:
        return None, "computed", key
    _run_cache[spec] = result
    return result, "disk", key


def remember(spec: RunSpec, result: RunResult, key: Optional[str] = None,
             *, persist: bool = True) -> None:
    """Memoise ``result`` for ``spec`` and, with ``persist``, write it
    to the store (under ``key`` when the caller already hashed it).

    A store that cannot be written (an ``OSError``) costs the result
    its persistence, not the run: the store's first failed write
    prints one warning naming its directory.  Anything else — a codec
    bug, say — raises.
    """
    _run_cache[spec] = result
    disk = active_disk_cache() if persist else None
    if disk is None:
        return
    try:
        disk.put(run_cache.cache_key(spec) if key is None else key,
                 spec, result)
    except OSError as exc:
        disk.failed_puts += 1
        if disk.failed_puts == 1:
            print(f"warning: cannot write the run store {disk.root} "
                  f"({exc}); results are kept in memory only",
                  file=sys.stderr)


def run_spec_ex(spec: RunSpec) -> Tuple[RunResult, str]:
    """Execute (or recall) one spec; returns (result, source).

    ``source`` is "memory" (in-process memo), "disk" (persistent
    cache) or "computed" (simulated now; persisted when the disk layer
    is enabled).
    """
    result, source, key = recall(spec)
    if result is None:
        result = _execute_spec(spec)
        remember(spec, result, key)
    return result, source


def run_spec(spec: RunSpec) -> RunResult:
    """Execute (or recall) one spec through both cache layers."""
    return run_spec_ex(spec)[0]


def _spec_config(spec: RunSpec) -> SimulationConfig:
    """The :class:`SimulationConfig` one spec resolves to: its
    platform's :func:`build_config` with the spec's ``cc_*`` fields
    written inline into its chargecache term, cut to one core for an
    alone run (which keeps the eight-core instruction budget)."""
    from repro.core import registry
    mechanism = registry.fill_params(spec.mechanism, "chargecache", {
        "entries": spec.cc_entries,
        "caching_duration_ms": spec.cc_duration_ms,
        "unbounded": spec.cc_unbounded or None})
    cfg = build_config(spec.kind, mechanism, spec.scale,
                       row_policy=spec.row_policy, engine=spec.engine)
    if spec.kind == "alone":
        cfg = replace(cfg, processor=replace(cfg.processor, num_cores=1))
    return replace(cfg, idle_finished_cores=spec.idle_finished)


def _spec_apps(spec: RunSpec) -> List[str]:
    """Per-core application names of a non-trace spec: a mix's
    composition, else the one application the spec names."""
    return mix_composition(spec.name) if spec.kind == "eight" \
        else [spec.name]


def _spec_traces(spec: RunSpec, cfg: SimulationConfig) -> list:
    """The per-core trace iterators one spec simulates.

    Traces depend only on the spec's non-mechanism fields (workload
    name, seed, DRAM organization), so every member of a
    batch group — same :func:`~repro.harness.spec.batch_signature` —
    produces the identical trace set; the batch path builds it once
    from the group's first spec.
    """
    org = Organization.from_config(cfg.dram)
    if spec.kind == "trace":
        return [_load_trace_records(spec, org)]
    return make_mix_traces(_spec_apps(spec), org, seed=spec.seed)


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


def _execute_spec(spec: RunSpec) -> RunResult:
    """Actually simulate one spec (no caching)."""
    from repro.cpu.system import System
    cfg = _spec_config(spec)
    system = System(cfg, _spec_traces(spec, cfg),
                    enable_rltl=spec.enable_rltl,
                    rltl_time_scale=spec.scale.time_scale)
    return system.run(max_mem_cycles=spec.scale.max_mem_cycles)


def run_spec_batch(specs: Iterable[RunSpec]) -> List[RunResult]:
    """Simulate a batch group through one shared trace replay.

    Every spec must share one :func:`~repro.harness.spec.batch_signature`
    (same workload, seed, scale, engine, platform — different mechanism
    knobs only); otherwise ``ValueError`` is raised before any
    simulation starts.  Each spec runs in full; the group shares only
    the trace tape, so results are bit-identical to :func:`run_spec` on
    each spec individually.  They are remembered in both cache layers
    under each spec's own, unchanged cache key — a later run of any
    member is a plain cache hit.
    """
    from repro.cpu.system import System
    from repro.harness.spec import batch_signature
    specs = list(specs)
    if not specs:
        return []
    signature = batch_signature(specs[0])
    for spec in specs[1:]:
        if batch_signature(spec) != signature:
            raise ValueError(
                f"specs {specs[0].label()!r} and {spec.label()!r} "
                "differ outside their mechanism fields")
    configs = [_spec_config(spec) for spec in specs]
    results = System.run_batch(
        configs, _spec_traces(specs[0], configs[0]),
        max_mem_cycles=specs[0].scale.max_mem_cycles,
        enable_rltl=specs[0].enable_rltl,
        rltl_time_scale=specs[0].scale.time_scale)
    for spec, result in zip(specs, results):
        remember(spec, result)
    return results
