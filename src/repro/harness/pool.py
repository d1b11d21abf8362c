"""Process-pool fan-out for experiment sweeps.

Every paper figure is an embarrassingly parallel grid of independent
(workload, mechanism, parameter, seed) points, so the harness executes
sweeps as flat :class:`~repro.harness.spec.RunSpec` lists through
:func:`execute_sweep`:

* **Deterministic ordering** - results come back in spec order no
  matter how workers finish, so ``--jobs 1`` and ``--jobs N`` produce
  byte-identical experiment artifacts.
* **Read-through caching at every layer** - points already in the
  parent's memo never reach the pool; workers consult (and populate)
  the persistent cache of :mod:`repro.harness.cache`; worker results
  cross the process boundary as the same versioned JSON the disk layer
  stores, then back-fill the parent memo, so aggregation code that
  re-requests a run hits memory.
* **Failure surfacing** - a worker exception cancels the remaining
  sweep and re-raises as :class:`SweepError` naming the failing spec,
  instead of hanging the sweep or dying with a bare pickle traceback.
* **Graceful serial fallback** - ``jobs=1`` (the default) never forks;
  environments without working ``multiprocessing`` degrade to serial
  with a warning rather than failing.

``jobs`` resolution: explicit argument, else the ``REPRO_JOBS``
environment variable, else 1 (serial).  ``0`` means one worker per CPU.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cpu.system import RunResult
from repro.harness import cache as run_cache
from repro.harness import runner
from repro.harness.spec import RunSpec, batch_signature, dedupe_specs

#: Environment variable supplying the default pool width.
JOBS_ENV = "REPRO_JOBS"

#: Claim-chunk size for distributed sweeps: how many specs one
#: ``claim_many`` grabs at a time.  Small enough that racing hosts
#: interleave chunks (work stealing), large enough to amortize the
#: claim lock and keep batch groups intact.
DEFAULT_CHUNK_SPECS = 16

#: Process-wide default for batched sweep execution; the CLI's
#: ``--no-batch`` flips it via :func:`set_batching`.
default_batching: bool = True


def set_batching(enabled: bool) -> None:
    """Enable/disable batched multi-variant execution process-wide."""
    global default_batching
    default_batching = enabled


@dataclass(frozen=True)
class SweepPoint:
    """One executed sweep point: its spec, result and provenance."""

    spec: RunSpec
    result: RunResult
    #: "memory" | "disk" | "computed" | "remote" — which layer served
    #: the run ("remote" = a peer host computed it into the shared
    #: store while we waited on its claim).
    source: str
    seconds: float = 0.0
    #: Short id of the batch group this point was computed in, or None
    #: when it ran on its own (cache hits and serial runs).  Points
    #: sharing an id shared one trace replay through
    #: ``System.run_batch``; the id never feeds cache keys.
    batch_group: Optional[str] = None

    @property
    def cached(self) -> bool:
        return self.source != "computed"


class SweepError(RuntimeError):
    """A sweep point failed; carries the offending spec."""

    def __init__(self, spec: RunSpec, cause: BaseException):
        super().__init__(
            f"sweep point {spec.label()!r} failed: "
            f"{type(cause).__name__}: {cause}")
        self.spec = spec


class Sweep:
    """Ordered results of one :func:`execute_sweep` call."""

    def __init__(self, points: List[SweepPoint], jobs: int):
        self.points = points
        self.jobs = jobs

    @property
    def results(self) -> List[RunResult]:
        return [p.result for p in self.points]

    def _unique_points(self) -> List[SweepPoint]:
        """One point per distinct spec (duplicates execute only once)."""
        seen = {}
        for point in self.points:
            seen.setdefault(point.spec, point)
        return list(seen.values())

    def counts(self) -> Dict[str, int]:
        unique = self._unique_points()
        counts = {"points": len(unique), "memory": 0, "disk": 0,
                  "computed": 0, "remote": 0, "batched": 0}
        for point in unique:
            counts[point.source] += 1
            if point.batch_group is not None:
                counts["batched"] += 1
        return counts

    def annotation(self) -> Dict:
        """JSON-friendly cache/parallelism summary for result dicts.

        Each point also records its content-addressed cache key so
        provenance exports (cache_manifest.csv) can be joined against
        the cache directory — e.g. to assert that a cold ``all`` run
        executed every distinct key exactly once — plus its engine and
        batch-group id (multi-variant points computed through one
        shared trace replay share an id).
        """
        info = self.counts()
        info["jobs"] = self.jobs
        info["points_detail"] = [
            {"label": p.spec.label(), "source": p.source,
             "key": run_cache.cache_key(p.spec),
             "engine": p.spec.engine,
             "batch_group": p.batch_group or ""}
            for p in self._unique_points()]
        return info


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Concrete pool width: argument, then the applied
    :class:`~repro.config.ExecutionConfig` default, then
    ``REPRO_JOBS``, else 1 (serial); 0 = one per CPU."""
    if jobs is None:
        jobs = runner.default_jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        jobs = int(env) if env else 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one per CPU)")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def _batch_groups(pending: Sequence[RunSpec]) -> List[List[RunSpec]]:
    """Pending specs grouped by batch signature, first-seen order."""
    groups: Dict[str, List[RunSpec]] = {}
    for spec in pending:
        groups.setdefault(batch_signature(spec), []).append(spec)
    return list(groups.values())


def _group_id(spec: RunSpec) -> str:
    """Short stable id naming ``spec``'s batch group in telemetry."""
    signature = batch_signature(spec)
    return hashlib.sha256(signature.encode("ascii")).hexdigest()[:12]


class _WorkerError(Exception):
    """A spec inside a pool work unit failed.

    Carries the failing spec's index within its unit plus the original
    cause, so the parent can raise a :class:`SweepError` naming the
    right spec.  ``args`` mirror ``__init__`` so the instance survives
    the pickle round-trip back through ``concurrent.futures``.
    """

    def __init__(self, index: int, cause: BaseException):
        super().__init__(index, cause)
        self.index = index
        self.cause = cause


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in."""
    import pickle
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# A worker re-binds the persistent cache exactly like its parent (the
# binding is module state, which "spawn" children do not inherit), then
# serves its work unit through the full read-through stack.  A unit is
# a *batch group* — one or more specs sharing a batch signature; multi-
# spec units ride one shared trace replay (``runner.run_spec_batch``),
# degrading to per-spec serial runs if the runner rejects the group.
# Results cross back as cache-layer JSON: plain data, cheap to pickle,
# and guaranteed to decode to the same RunResult a disk hit would
# produce.
def _pool_worker(payload: Tuple[List[RunSpec], Optional[str], bool]
                 ) -> List[Tuple[Dict, str, float, Optional[str]]]:
    group, cache_dir, cache_enabled = payload
    runner.configure_disk_cache(cache_dir, enabled=cache_enabled)
    if len(group) > 1:
        started = time.perf_counter()
        try:
            results = runner.run_spec_batch(group)
        except runner.BatchIncompatible:
            pass   # mechanisms resolved to incompatible platforms
        except Exception as exc:
            # Attribute batch failures to the group's witness spec.
            raise _WorkerError(0, _picklable(exc)) from None
        else:
            share = (time.perf_counter() - started) / len(group)
            gid = _group_id(group[0])
            return [(run_cache.result_to_json(result), "computed",
                     share, gid) for result in results]
    entries = []
    for index, spec in enumerate(group):
        started = time.perf_counter()
        try:
            result, source = runner.run_spec_ex(spec)
        except Exception as exc:
            raise _WorkerError(index, _picklable(exc)) from None
        entries.append((run_cache.result_to_json(result), source,
                        time.perf_counter() - started, None))
    return entries


ProgressFn = Callable[[int, int, SweepPoint], None]


def execute_sweep(specs: Sequence[RunSpec],
                  jobs: Optional[int] = None,
                  progress: Optional[ProgressFn] = None,
                  batch: Optional[bool] = None,
                  journal=None,
                  claimer=None,
                  chunk_specs: int = DEFAULT_CHUNK_SPECS,
                  remote_wait_s: float = 600.0,
                  remote_poll_s: float = 0.1) -> Sweep:
    """Execute every spec, fanning out over processes when jobs > 1.

    Duplicate specs are computed once; the returned sweep always has
    one point per input spec, in input order.

    At every job width, specs that differ only in their mechanism
    fields (same :func:`~repro.harness.spec.batch_signature`) are
    routed through one batched trace replay (``System.run_batch``)
    instead of N independent simulations — bit-identical results,
    cached under each spec's own key.  At ``jobs > 1`` each batch
    group is the unit of pool distribution, so parallel sweeps keep
    the collapse (groups overlap across workers; the variants inside a
    group still share one replay).  ``batch`` overrides the
    process-wide default (:func:`set_batching`).

    **Resumable**: ``journal`` (a
    :class:`~repro.harness.journal.SweepJournal` or a path) checkpoints
    every completed key as it lands; a killed sweep restarted with the
    same journal and store serves checkpointed specs from the store and
    re-simulates none of them.

    **Distributable**: ``claimer`` (a
    :class:`~repro.harness.store.FileClaimer`) turns the sweep into a
    work-stealing participant: pending specs are claimed in chunks of
    ``chunk_specs``, each key is computed by exactly the host that won
    its claim, and keys claimed by peers are polled from the shared
    store (source ``"remote"``) for up to ``remote_wait_s`` seconds —
    after which stale claims are stolen via the claimer's staleness
    policy, and anything still missing fails the sweep.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if batch is None:
        batch = default_batching
    if isinstance(journal, str):
        from repro.harness.journal import SweepJournal
        journal = SweepJournal(journal)
    unique = dedupe_specs(specs)
    by_spec: Dict[RunSpec, SweepPoint] = {}
    total = len(unique)
    done = 0

    def record(point: SweepPoint) -> None:
        nonlocal done
        by_spec[point.spec] = point
        if journal is not None:
            journal.record(run_cache.cache_key(point.spec),
                           label=point.spec.label(),
                           source=point.source)
        done += 1
        if progress is not None:
            progress(done, total, point)

    # Points the parent can already serve never reach the pool: memo
    # first, then a parent-side disk probe — a fully warm sweep must
    # not fork workers just to decode JSON it could read directly.
    disk = runner.active_disk_cache()
    pending: List[RunSpec] = []
    for spec in unique:
        memo = runner._run_cache.get(spec)
        if memo is not None:
            record(SweepPoint(spec, memo, "memory"))
            continue
        if disk is not None:
            hit = disk.get(run_cache.cache_key(spec))
            if hit is not None:
                runner._install(spec, hit)
                record(SweepPoint(spec, hit, "disk"))
                continue
        pending.append(spec)

    if pending:
        if claimer is not None:
            _run_distributed(pending, jobs, record, batch, claimer,
                             chunk_specs, remote_wait_s, remote_poll_s)
        elif jobs > 1 and len(pending) > 1:
            _run_parallel(pending, jobs, record, batch)
        elif batch:
            _run_grouped(pending, record)
        else:
            _run_serial(pending, record)

    return Sweep([by_spec[spec] for spec in specs], jobs)


def _run_grouped(pending: Sequence[RunSpec],
                 record: Callable[[SweepPoint], None]) -> None:
    """Serial execution with same-platform variants batched.

    Groups keep first-seen order, and specs inside a group keep input
    order, so progress output stays deterministic.  A group of one is
    just a serial run; a group the runner rejects (mechanisms that
    resolve to incompatible platforms despite matching signatures)
    falls back to serial rather than failing the sweep.
    """
    for group in _batch_groups(pending):
        if len(group) == 1:
            _run_serial(group, record)
            continue
        gid = _group_id(group[0])
        started = time.perf_counter()
        try:
            results = runner.run_spec_batch(group)
        except runner.BatchIncompatible:
            _run_serial(group, record)
            continue
        except Exception as exc:
            raise SweepError(group[0], exc) from exc
        # Wall-clock is shared; report each point's amortized share.
        share = (time.perf_counter() - started) / len(group)
        for spec, result in zip(group, results):
            record(SweepPoint(spec, result, "computed", share,
                              batch_group=gid))


def _run_serial(pending: Sequence[RunSpec],
                record: Callable[[SweepPoint], None]) -> None:
    for spec in pending:
        started = time.perf_counter()
        try:
            result, source = runner.run_spec_ex(spec)
        except Exception as exc:
            raise SweepError(spec, exc) from exc
        record(SweepPoint(spec, result, source,
                          time.perf_counter() - started))


def _run_parallel(pending: Sequence[RunSpec], jobs: int,
                  record: Callable[[SweepPoint], None],
                  batch: bool) -> None:
    """Fan work units out over a process pool.

    With ``batch`` on, the unit of distribution is a batch group
    (specs sharing a :func:`~repro.harness.spec.batch_signature`), so
    parallel sweeps keep the multi-variant collapse: groups overlap
    across workers while each group's variants share one trace replay
    inside its worker.  With ``batch`` off every spec is its own unit.
    """
    units = _batch_groups(pending) if batch \
        else [[spec] for spec in pending]
    try:
        from concurrent.futures import FIRST_COMPLETED, \
            ProcessPoolExecutor, wait
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(units)))
    except (ImportError, NotImplementedError, OSError,
            PermissionError) as exc:
        print(f"warning: process pool unavailable ({exc}); "
              f"running sweep serially", file=sys.stderr)
        if batch:
            _run_grouped(pending, record)
        else:
            _run_serial(pending, record)
        return

    disk = runner.active_disk_cache()
    cache_dir = disk.root if disk is not None else None
    with executor:
        futures = {
            executor.submit(_pool_worker,
                            (unit, cache_dir, disk is not None)): unit
            for unit in units}
        not_done = set(futures)
        try:
            while not_done:
                finished, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                for future in finished:
                    unit = futures[future]
                    try:
                        entries = future.result()
                    except _WorkerError as exc:
                        raise SweepError(unit[exc.index],
                                         exc.cause) from exc.cause
                    except Exception as exc:
                        raise SweepError(unit[0], exc) from exc
                    for spec, entry in zip(unit, entries):
                        data, source, seconds, gid = entry
                        result = run_cache.result_from_json(data)
                        runner._install(spec, result)
                        record(SweepPoint(spec, result, source, seconds,
                                          batch_group=gid))
        except BaseException:
            # Drop everything still queued so the error surfaces after
            # at most the in-flight runs, not the whole remaining sweep.
            executor.shutdown(wait=False, cancel_futures=True)
            raise


def _chunk_units(units: Sequence[List[RunSpec]],
                 chunk_specs: int) -> List[List[List[RunSpec]]]:
    """Pack whole work units into claim chunks of ~``chunk_specs``.

    Units (batch groups) are never split across chunks, so a chunk's
    winner keeps the PR 6 one-replay-per-group collapse intact.
    """
    chunks: List[List[List[RunSpec]]] = []
    current: List[List[RunSpec]] = []
    size = 0
    for unit in units:
        current.append(list(unit))
        size += len(unit)
        if size >= chunk_specs:
            chunks.append(current)
            current, size = [], 0
    if current:
        chunks.append(current)
    return chunks


def _run_distributed(pending: Sequence[RunSpec], jobs: int,
                     record: Callable[[SweepPoint], None], batch: bool,
                     claimer, chunk_specs: int,
                     remote_wait_s: float, remote_poll_s: float) -> None:
    """Work-stealing partition of ``pending`` across claimer peers.

    The sweep walks its chunks in spec order, claiming each atomically
    (:meth:`~repro.harness.store.FileClaimer.claim_many`); racing
    hosts walking the same order therefore interleave — whoever
    reaches a chunk first wins it, everyone else skips ahead.  Won
    specs run locally (batched, and through the process pool when
    ``jobs > 1``); lost specs are drained from the shared store once
    their winner publishes them.
    """
    disk = runner.active_disk_cache()
    if disk is None:
        raise SweepError(pending[0], RuntimeError(
            "distributed sweeps need a shared persistent store; "
            "run without --no-cache / REPRO_NO_CACHE"))
    units = _batch_groups(pending) if batch \
        else [[spec] for spec in pending]
    theirs: List[Tuple[RunSpec, str]] = []
    for chunk in _chunk_units(units, chunk_specs):
        flat = [spec for unit in chunk for spec in unit]
        keys = [run_cache.cache_key(spec) for spec in flat]
        wins = claimer.claim_many(keys)
        won = {spec for spec, win in zip(flat, wins) if win}
        theirs += [(spec, key) for spec, win, key
                   in zip(flat, wins, keys) if not win]
        mine = [[spec for spec in unit if spec in won]
                for unit in chunk]
        mine = [unit for unit in mine if unit]
        if mine:
            _run_claimed(mine, jobs, record, batch, claimer)
    if theirs:
        _drain_remote(theirs, jobs, record, batch, claimer,
                      remote_wait_s, remote_poll_s)


def _run_claimed(units: Sequence[List[RunSpec]], jobs: int,
                 record: Callable[[SweepPoint], None], batch: bool,
                 claimer) -> None:
    """Run units this host won; mark each key done (or release it).

    ``done`` fires only after the point is recorded — by then the
    runner has persisted the envelope, so a peer that finds the lease
    gone always finds the envelope (DESIGN.md §10).  On failure every
    not-yet-finished claim is released so peers (or a retry) can
    claim it instead of deadlocking on a dead owner.
    """
    flat = [spec for unit in units for spec in unit]
    finished = set()

    def capture(point: SweepPoint) -> None:
        record(point)
        finished.add(point.spec)
        claimer.done(run_cache.cache_key(point.spec))

    try:
        if jobs > 1 and len(flat) > 1:
            _run_parallel(flat, jobs, capture, batch)
        elif batch:
            _run_grouped(flat, capture)
        else:
            _run_serial(flat, capture)
    except BaseException:
        for spec in flat:
            if spec in finished:
                continue
            try:
                claimer.release(run_cache.cache_key(spec))
            except Exception:
                pass  # releasing is best-effort; staleness recovers it
        raise


def _drain_remote(theirs: Sequence[Tuple[RunSpec, str]], jobs: int,
                  record: Callable[[SweepPoint], None], batch: bool,
                  claimer, wait_s: float, poll_s: float) -> None:
    """Wait for peer-claimed keys to appear in the shared store.

    Peers publish the envelope before dropping their lease, so a store
    hit is always a complete result.  If the deadline passes, one
    reclaim attempt is made — a claimer configured with
    ``steal_stale_s`` takes over work whose owner died — and only then
    does the sweep fail.
    """
    disk = runner.active_disk_cache()
    waiting = list(theirs)
    deadline = time.monotonic() + wait_s
    while waiting:
        still: List[Tuple[RunSpec, str]] = []
        for spec, key in waiting:
            hit = disk.get(key)
            if hit is not None:
                runner._install(spec, hit)
                record(SweepPoint(spec, hit, "remote"))
            else:
                still.append((spec, key))
        waiting = still
        if not waiting:
            return
        if time.monotonic() >= deadline:
            specs = [spec for spec, _ in waiting]
            keys = [key for _, key in waiting]
            wins = claimer.claim_many(keys)
            stolen = [spec for spec, win in zip(specs, wins) if win]
            if stolen:
                _run_claimed(_batch_groups(stolen) if batch
                             else [[spec] for spec in stolen],
                             jobs, record, batch, claimer)
            waiting = [(spec, key) for (spec, key), win
                       in zip(waiting, wins) if not win]
            if not waiting:
                return
            # Give the live-but-slow owners one more full window
            # after a steal round before declaring them lost.
            if stolen:
                deadline = time.monotonic() + wait_s
                continue
            raise SweepError(waiting[0][0], TimeoutError(
                f"{len(waiting)} peer-claimed key(s) never appeared "
                f"in the shared store within {wait_s:.0f}s and could "
                f"not be stolen"))
        time.sleep(poll_s)


def stderr_progress(done: int, total: int, point: SweepPoint) -> None:
    """A plain-text progress reporter for CLI use."""
    print(f"  [{done}/{total}] {point.spec.label()} ({point.source}"
          f"{f', {point.seconds:.1f}s' if point.seconds else ''})",
          file=sys.stderr)
