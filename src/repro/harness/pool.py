"""Process-pool fan-out for experiment sweeps.

Every paper figure is an embarrassingly parallel grid of independent
(workload, mechanism, parameter, seed) points, so the harness executes
sweeps as flat :class:`~repro.harness.spec.RunSpec` lists through
:func:`execute_sweep`:

* **Deterministic ordering** - results come back in spec order no
  matter how workers finish, so ``--jobs 1`` and ``--jobs N`` produce
  byte-identical experiment artifacts.
* **One unit runner** - pending points run as batch groups through
  :func:`_run_unit`, in this process or in a pool worker.
* **Read-through caching at every layer** - points the parent can
  already recall (memo, then store) never reach a unit; workers
  consult (and populate) the persistent cache of
  :mod:`repro.harness.cache`; worker results cross the process
  boundary as the same versioned JSON the disk layer stores, then
  back-fill the parent memo, so a later sweep over the same points
  (e.g. each figure after ``all``'s shared pool) hits memory.
* **Failure surfacing** - a failing unit cancels the remaining sweep
  and re-raises as :class:`SweepError` naming the unit's first spec,
  instead of hanging the sweep or dying with a bare pickle traceback.
* **Graceful in-process fallback** - ``jobs=1`` (the default) never
  forks; environments without working ``multiprocessing`` run the
  units in-process with a warning rather than failing.
* **One model import** - a sweep with points to fan out imports the
  cycle-level model in the parent before it forks, so workers inherit
  it rather than each compiling it; a sweep the parent recalls in
  full never reaches the pool and loads no model at all.

``jobs`` resolution: explicit argument, else ``runner.execution.jobs``,
else the ``REPRO_JOBS`` environment variable, else 1 (serial).  ``0``
means one worker per CPU.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cpu.result import RunResult
from repro.harness import cache as run_cache
from repro.harness import runner
from repro.harness.spec import RunSpec, batch_signature, dedupe_specs

#: Environment variable supplying the default pool width.
JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class SweepPoint:
    """One executed sweep point: its spec, result and provenance."""

    spec: RunSpec
    result: RunResult
    #: "memory" | "disk" | "computed" — which layer served the run.
    source: str
    #: Wall time of the unit that computed the point, on the unit's
    #: first point; 0.0 on a batch group's other points and on recalls.
    seconds: float = 0.0
    #: Short id of the batch group this point was computed in, or None
    #: when it ran on its own (cache hits and groups of one).  Points
    #: sharing an id shared one trace replay through
    #: ``System.run_batch``; the id never feeds cache keys.
    batch_group: Optional[str] = None


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

    def _unique_points(self) -> List[SweepPoint]:
        """One point per distinct spec (duplicates execute only once)."""
        seen = {}
        for point in self.points:
            seen.setdefault(point.spec, point)
        return list(seen.values())

    def counts(self) -> Dict[str, int]:
        unique = self._unique_points()
        counts = {"points": len(unique), "memory": 0, "disk": 0,
                  "computed": 0, "batched": 0}
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
    """Concrete pool width: argument, then ``runner.execution.jobs``,
    then ``REPRO_JOBS``, else 1 (serial); 0 = one per CPU."""
    if jobs is None:
        jobs = runner.execution.jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "")
        try:
            jobs = int(env) if env else 1
        except ValueError:
            jobs = -1
        if jobs < 0:
            raise ValueError(f"{JOBS_ENV} must be an integer >= 0 "
                             f"(0 = one per CPU), got {env!r}")
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
    """Short stable id naming ``spec``'s batch group in annotations."""
    signature = batch_signature(spec)
    return hashlib.sha256(signature.encode("ascii")).hexdigest()[:12]


class _WorkerError(Exception):
    """A work unit failed; ``cause`` is the (picklable) original.

    ``args`` mirror ``__init__`` so the instance survives the pickle
    round-trip back through ``concurrent.futures``.
    """

    def __init__(self, cause: BaseException):
        super().__init__(cause)
        self.cause = cause


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful stand-in."""
    import pickle
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_unit(group: List[RunSpec]) -> List[SweepPoint]:
    """Run one work unit — a batch group — and return its points, in
    group order.

    A group of one runs through ``runner.run_spec_ex``; a larger group
    shares one trace tape through ``runner.run_spec_batch`` (looked
    up on the module, so wrappers installed there see the call).  The
    group's wall time is measured once, for the whole group, so its
    first point carries it and the others 0.0: no member's own time
    is known.  Any failure is raised as :class:`_WorkerError`,
    attributed to the group's first spec.
    """
    started = time.perf_counter()
    try:
        if len(group) == 1:
            result, source = runner.run_spec_ex(group[0])
            outcomes, gid = [(result, source)], None
        else:
            gid = _group_id(group[0])
            outcomes = [(result, "computed")
                        for result in runner.run_spec_batch(group)]
    except Exception as exc:
        raise _WorkerError(_picklable(exc)) from None
    times = [time.perf_counter() - started] + [0.0] * (len(group) - 1)
    return [SweepPoint(spec, result, source, seconds, gid)
            for spec, (result, source), seconds in zip(group, outcomes,
                                                       times)]


def _unit_result(group: List[RunSpec], outcome: Callable[[], list]
                 ) -> list:
    """``outcome()``, with any failure raised as :class:`SweepError`
    naming the group's first spec."""
    try:
        return outcome()
    except _WorkerError as exc:
        raise SweepError(group[0], exc.cause) from exc.cause
    except Exception as exc:   # the pool itself broke
        raise SweepError(group[0], exc) from exc


# A worker binds the persistent store exactly like its parent (the
# binding lives in ``runner.execution``, which "spawn" children do not
# inherit; specs already carry their engine), then runs its unit.
# Results cross back as cache-layer JSON: plain data, cheap to pickle,
# and guaranteed to decode to the same RunResult a disk hit would
# produce.
def _pool_worker(payload: Tuple[List[RunSpec], Optional[str], bool]
                 ) -> List[Tuple[Dict, str, float, Optional[str]]]:
    group, cache_dir, cache_enabled = payload
    runner.set_execution(runner.Execution(cache_dir=cache_dir,
                                          use_run_cache=cache_enabled))
    return [(run_cache.result_to_json(point.result), point.source,
             point.seconds, point.batch_group)
            for point in _run_unit(group)]


ProgressFn = Callable[[int, int, SweepPoint], None]


def execute_sweep(specs: Sequence[RunSpec],
                  jobs: Optional[int] = None,
                  progress: Optional[ProgressFn] = None) -> Sweep:
    """Execute every spec, fanning out over processes when jobs > 1.

    Duplicate specs are computed once; the returned sweep always has
    one point per input spec, in input order.

    Pending specs that differ only in their mechanism fields (same
    :func:`~repro.harness.spec.batch_signature`) form one work unit
    and run through ``System.run_batch``: each variant runs in full,
    and the unit reads its workload's traces once, onto one shared
    trace tape — bit-identical results, cached under each spec's own
    key.  At ``jobs > 1`` units overlap across workers; the variants
    inside a unit still share one tape.  ``jobs`` and ``progress``
    left None come from ``runner.execution``.

    **Resumable**: every computed point is persisted to the store as
    it lands, and the store is probed before anything runs, so a
    killed sweep restarted against the same store re-simulates none of
    the points it already finished.  The store's envelopes are the
    record of what a killed sweep finished; :meth:`Sweep.annotation`
    says where each point of a finished one came from.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if progress is None:
        progress = runner.execution.progress
    unique = dedupe_specs(specs)
    by_spec: Dict[RunSpec, SweepPoint] = {}
    total = len(unique)
    done = 0

    def record(point: SweepPoint) -> None:
        nonlocal done
        by_spec[point.spec] = point
        done += 1
        if progress is not None:
            progress(done, total, point)

    # Points the parent can already recall never reach a unit: a
    # fully warm sweep must not fork workers just to decode JSON it
    # could read directly.
    pending: List[RunSpec] = []
    for spec in unique:
        result, source, _ = runner.recall(spec)
        if result is None:
            pending.append(spec)
        else:
            record(SweepPoint(spec, result, source))

    units = _batch_groups(pending)
    if jobs > 1 and len(pending) > 1:
        _run_parallel(units, jobs, record)
    else:
        _run_in_process(units, record)

    return Sweep([by_spec[spec] for spec in specs], jobs)


def _run_in_process(units: List[List[RunSpec]],
                    record: Callable[[SweepPoint], None]) -> None:
    """Run the units here, one after another, in first-seen order."""
    for unit in units:
        for point in _unit_result(unit, lambda: _run_unit(unit)):
            record(point)


def _run_parallel(units: List[List[RunSpec]], jobs: int,
                  record: Callable[[SweepPoint], None]) -> None:
    """Fan the units out over a process pool, recording each point as
    its unit lands.

    The cycle-level model is imported here first: this process
    simulates nothing itself, and workers forked after the import
    inherit it instead of each compiling it again."""
    import repro.cpu.system  # noqa: F401
    try:
        from concurrent.futures import FIRST_COMPLETED, \
            ProcessPoolExecutor, wait
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(units)))
    except (ImportError, NotImplementedError, OSError,
            PermissionError) as exc:
        print(f"warning: process pool unavailable ({exc}); "
              f"running sweep in-process", file=sys.stderr)
        _run_in_process(units, record)
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
                    for spec, (data, source, seconds, gid) in zip(
                            unit, _unit_result(unit, future.result)):
                        result = run_cache.result_from_json(data)
                        runner.remember(spec, result, persist=False)
                        record(SweepPoint(spec, result, source, seconds,
                                          batch_group=gid))
        except BaseException:
            # Drop everything still queued so the error surfaces after
            # at most the in-flight runs, not the whole remaining sweep.
            executor.shutdown(wait=False, cancel_futures=True)
            raise


def stderr_progress(done: int, total: int, point: SweepPoint) -> None:
    """A plain-text progress reporter for CLI use."""
    print(f"  [{done}/{total}] {point.spec.label()} ({point.source}"
          f"{f', {point.seconds:.1f}s' if point.seconds else ''})",
          file=sys.stderr)
