"""Persistent content-addressed run cache.

Simulation results are pure functions of (spec, code): a
:class:`~repro.harness.spec.RunSpec` plus the exact simulator sources
determines every counter in the :class:`~repro.cpu.result.RunResult`
bit for bit (the engine-parity suite enforces this).  That makes runs
safe to memoise *across processes*: this module stores each result as
versioned JSON under a cache directory keyed by

    sha256(schema version, spec.key_payload(), code fingerprint)

where the code fingerprint hashes every ``repro`` source file, so any
change to the simulator — not just to the spec — invalidates every
entry automatically.  Stale entries are never deleted eagerly; they are
simply unreachable under the new fingerprint.  :meth:`RunCache.gc`
(CLI: ``chargecache-harness cache gc [--dry-run]``) reclaims them by
pruning every envelope whose recorded fingerprint no longer matches
the current sources; ``RunCache.clear`` wipes the directory outright.

The spec payload hashed into the key is canonical (a
:class:`~repro.harness.spec.RunSpec` normalizes itself when built), so
order-permuted compositions — ``"nuat+chargecache"`` vs
``"chargecache+nuat"`` — and parameterized spellings of one run share
a single entry.

Layout (DESIGN.md section 4)::

    <cache-dir>/
        <64-hex-digit key>.json     one RunResult envelope per run
        <random>.tmp                an in-flight (or crashed) put

Envelopes carry ``schema``, ``fingerprint``, the originating ``spec``
payload (for inspection; the key already commits to it) and the
``result``.  Any unreadable, truncated, schema-mismatched or otherwise
corrupt file is treated as a miss — the run is simply recomputed — so a
crashed writer can never poison the cache.  Writes go through a
temp-file + atomic rename, so concurrent pool workers racing on the
same key at worst both compute and one wins the rename.

The directory resolves, in priority order: explicit ``RunCache(root)``
argument (the CLI's ``--cache-dir``), the ``REPRO_CACHE_DIR``
environment variable, then ``~/.cache/chargecache-repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config import (
    CacheConfig,
    ControllerConfig,
    DRAMConfig,
    ProcessorConfig,
    SimulationConfig,
)
from repro.cpu.result import RunResult
from repro.harness.spec import RunSpec

if TYPE_CHECKING:
    from repro.stats.reuse import RowReuseProfiler
    from repro.stats.rltl import RLTLProbe

#: Bump whenever the envelope or RunResult JSON layout changes shape;
#: old entries then read as misses instead of mis-parsing.  The decoder
#: reads only what this code writes: an envelope of an older version is
#: a miss, and ``gc`` reports it as stale.
SCHEMA_VERSION = 5

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Minimum age (seconds) before :meth:`RunCache.gc` treats a ``.tmp``
#: file as a crashed writer's orphan rather than an in-flight
#: :meth:`RunCache.put` in another process.  Envelope writes take
#: milliseconds, so an hour is conservatively safe.
TMP_SWEEP_AGE_S = 3600.0


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/chargecache-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "chargecache-repro")


# ----------------------------------------------------------------------
# Code fingerprint
# ----------------------------------------------------------------------

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """Hex digest over every ``repro`` source file's bytes.

    Computed once per process (sources cannot change under a running
    simulation).  Hashing contents rather than mtimes keeps the
    fingerprint identical across checkouts, containers and CI runners,
    which is what lets a CI cache artifact be reused at all.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        paths = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in filenames:
                if fn.endswith(".py"):
                    paths.append(os.path.join(dirpath, fn))
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            digest.update(b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory (persists a just-done rename).

    Not every platform/filesystem allows opening a directory for
    fsync; failing to harden the rename is acceptable (the envelope
    itself is already synced), so all errors are swallowed.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def cache_key(spec: RunSpec, fingerprint: Optional[str] = None) -> str:
    """Stable content hash naming ``spec``'s result file.

    The payload is canonical JSON (sorted keys, no whitespace
    variance), so the key is identical across processes, platforms and
    dict orderings; any field change — seed, engine, a single scale
    knob — produces an unrelated key.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "fingerprint": fingerprint or code_fingerprint(),
        "spec": spec.key_payload(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# RunResult <-> JSON codec
# ----------------------------------------------------------------------

def config_to_json(cfg: SimulationConfig) -> Dict:
    return dataclasses.asdict(cfg)


def config_from_json(data: Dict) -> SimulationConfig:
    return SimulationConfig(
        processor=ProcessorConfig(**data["processor"]),
        cache=CacheConfig(**data["cache"]),
        dram=DRAMConfig(**data["dram"]),
        controller=ControllerConfig(**data["controller"]),
        mechanism=data["mechanism"],
        instruction_limit=data["instruction_limit"],
        warmup_cpu_cycles=data["warmup_cpu_cycles"],
        idle_finished_cores=data["idle_finished_cores"],
        engine=data["engine"],
    )


class _CodecTiming:
    """Just enough of TimingParameters to rebuild a restored probe."""

    def __init__(self, tck_ns: float):
        self.tCK_ns = tck_ns

    def ms_to_cycles(self, ms: float) -> int:
        return int(round(ms * 1e6 / self.tCK_ns))


def _rltl_to_json(probe: RLTLProbe) -> Dict:
    return {
        "intervals_ms": list(probe.intervals_ms),
        "time_scale": probe.time_scale,
        "tck_ns": probe.timing.tCK_ns,
        "activations": probe.activations,
        "precharges": probe.precharges,
        "rltl_counts": list(probe.rltl_counts),
        "refresh_counts": list(probe.refresh_counts),
    }


def _rltl_from_json(data: Dict) -> RLTLProbe:
    from repro.stats.rltl import RLTLProbe
    probe = RLTLProbe(_CodecTiming(data["tck_ns"]),
                      intervals_ms=tuple(data["intervals_ms"]),
                      time_scale=data["time_scale"])
    probe.activations = data["activations"]
    probe.precharges = data["precharges"]
    probe.rltl_counts = list(data["rltl_counts"])
    probe.refresh_counts = list(data["refresh_counts"])
    return probe


def _reuse_to_json(profiler: RowReuseProfiler) -> Dict:
    return {
        "stack": [list(key) for key in profiler._stack],
        "histogram": {str(d): n for d, n in profiler.histogram.items()},
        "cold": profiler.cold,
        "activations": profiler.activations,
    }


def _reuse_from_json(data: Dict) -> RowReuseProfiler:
    from repro.stats.reuse import RowReuseProfiler
    profiler = RowReuseProfiler()
    for key in data["stack"]:
        profiler._stack[tuple(key)] = None
    profiler.histogram = {int(d): n for d, n in data["histogram"].items()}
    profiler.cold = data["cold"]
    profiler.activations = data["activations"]
    return profiler


#: RunResult fields persisted verbatim (ints, floats, bools, flat
#: lists of numbers — everything JSON round-trips exactly).
_PLAIN_FIELDS = (
    "mem_cycles", "cpu_cycles", "instructions", "core_cycles", "ipcs",
    "llc_hit_rate", "llc_load_misses", "activations", "act_reduced",
    "reads", "writes", "refreshes", "row_hit_rate",
    "average_read_latency_cycles", "mechanism_lookups", "mechanism_hits",
    "active_bank_cycles", "rank_active_cycles", "work_instructions",
    "truncated",
)


def _check_codec_covers_runresult() -> None:
    """Fail fast if RunResult grows a field the codec does not carry.

    Without this, a new field would silently reset to its default on
    every disk hit and every pool-worker result — breaking the
    jobs=1 vs jobs=N byte-identity invariant with all tests green.
    """
    covered = set(_PLAIN_FIELDS) | {"config", "extra", "rltl", "reuse"}
    actual = {f.name for f in dataclasses.fields(RunResult)}
    if covered != actual:
        raise TypeError(
            "RunResult/codec field mismatch: "
            f"missing={sorted(actual - covered)} "
            f"stale={sorted(covered - actual)} — update "
            "repro.harness.cache (_PLAIN_FIELDS or a dedicated codec) "
            "and bump SCHEMA_VERSION")


_check_codec_covers_runresult()


def result_to_json(result: RunResult) -> Dict:
    data = {name: getattr(result, name) for name in _PLAIN_FIELDS}
    data["config"] = config_to_json(result.config)
    data["extra"] = dict(result.extra)
    data["rltl"] = _rltl_to_json(result.rltl) if result.rltl else None
    data["reuse"] = _reuse_to_json(result.reuse) if result.reuse else None
    return data


def result_from_json(data: Dict) -> RunResult:
    kwargs = {name: data[name] for name in _PLAIN_FIELDS}
    rltl = data["rltl"]
    reuse = data["reuse"]
    return RunResult(
        config=config_from_json(data["config"]),
        extra=dict(data["extra"]),
        rltl=_rltl_from_json(rltl) if rltl else None,
        reuse=_reuse_from_json(reuse) if reuse else None,
        **kwargs,
    )


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GCReport:
    """Outcome of one :meth:`RunCache.gc` pass.

    ``stale`` lists ``(key_or_filename, reason)`` pairs for everything
    prunable — envelopes (fingerprint mismatch, schema mismatch,
    corrupt/unreadable file) and aged-out stray ``.tmp`` writer files;
    ``removed`` counts deletions actually performed (0 on a dry run);
    ``kept`` counts entries reachable under the current fingerprint.
    """

    stale: List[tuple]
    kept: int
    removed: int

class RunCache:
    """One cache directory of RunResult envelopes.

    Thread- and process-safe by construction: reads never lock (a
    corrupt or in-flight file is a miss) and writes are atomic renames.
    ``failed_puts`` counts this instance's failed writes, so only the
    first one warns.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root or default_cache_dir())
        self.failed_puts = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (any failure = miss)."""
        envelope = self.get_envelope(key)
        if envelope is None:
            return None
        try:
            return result_from_json(envelope["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            return None

    def get_envelope(self, key: str) -> Optional[Dict]:
        """The raw envelope dict for ``key``, or None (failure = miss).

        The envelope is the store's file format: ``schema`` / ``key`` /
        ``fingerprint`` / ``spec`` (key payload) / ``result``.
        """
        try:
            with open(self.path_for(key), "r", encoding="ascii") as fh:
                envelope = json.load(fh)
            if not isinstance(envelope, dict) \
                    or envelope.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            envelope["result"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return envelope

    def put(self, key: str, spec: RunSpec, result: RunResult) -> str:
        """Atomically persist ``result`` under ``key``; returns the path."""
        envelope = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "fingerprint": code_fingerprint(),
            "spec": spec.key_payload(),
            "result": result_to_json(result),
        }
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                json.dump(envelope, fh)
                # Durability before visibility: os.replace is atomic
                # for readers, but without an fsync a crash/power-loss
                # can persist the rename while the data blocks are
                # still unwritten — a silently truncated envelope at
                # the final path.  Sync the temp file before it can be
                # renamed into place.
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_directory(self.root)
        except Exception:
            # Also covers json TypeError on an unserialisable result:
            # never leave a stray temp file behind.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def _directory_now(self) -> float:
        """"Now" according to the cache directory's own clock.

        The ``.tmp`` sweep ages files by mtime, but mtimes are stamped
        by the *filesystem serving the directory* — on an NFS-mounted
        cache dir the server's clock can be arbitrarily skewed from
        this host's ``time.time()``, making fresh in-flight temps look
        hours old (or orphans look forever young).  Touching a probe file and
        reading its mtime back samples the same clock that stamped
        every other file, so age comparisons stay meaningful under any
        skew.  Falls back to ``time.time()`` if the directory is not
        writable.
        """
        try:
            fd, probe = tempfile.mkstemp(dir=self.root, suffix=".clock")
            try:
                os.close(fd)
                return os.stat(probe).st_mtime
            finally:
                try:
                    os.unlink(probe)
                except OSError:
                    pass
        except OSError:
            return time.time()  # repro: allow(determinism) -- GC age fallback, never keys results

    def gc(self, fingerprint: Optional[str] = None,
           dry_run: bool = False) -> GCReport:
        """Prune entries unreachable under the current code fingerprint.

        Content-addressed entries can never be *wrong*, only
        unreachable: a key embeds the fingerprint, so after any source
        change the old files just sit on disk forever.  ``gc`` reads
        each envelope and removes those whose recorded fingerprint (or
        schema) no longer matches — corrupt and unreadable files count
        as stale too.  "Stale" is relative to *this checkout's*
        sources: if the cache directory is shared across branches or
        worktrees, another checkout's perfectly reachable entries look
        stale from here — use ``dry_run`` first in that setup (the
        entries are only a recompute away, never wrong, so the cost
        of an over-eager gc is time, not correctness).  Stray
        ``.tmp`` files from crashed writers are swept once they are
        older than :data:`TMP_SWEEP_AGE_S` (young ones may belong to
        an in-flight :meth:`put` in another process and are left
        alone).  ``dry_run=True`` reports everything that would be
        removed — envelopes and temps — without deleting anything.
        """
        fingerprint = fingerprint or code_fingerprint()
        stale, kept, removed = [], 0, 0
        for key in self.keys():
            path = self.path_for(key)
            reason = None
            try:
                with open(path, "r", encoding="ascii") as fh:
                    envelope = json.load(fh)
                if not isinstance(envelope, dict):
                    reason = "corrupt envelope"
                elif envelope.get("schema") != SCHEMA_VERSION:
                    reason = (f"schema {envelope.get('schema')!r} != "
                              f"{SCHEMA_VERSION}")
                elif envelope.get("fingerprint") != fingerprint:
                    reason = "code fingerprint mismatch"
            except (OSError, ValueError):
                reason = "unreadable"
            if reason is None:
                kept += 1
                continue
            stale.append((key, reason))
            if not dry_run:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        # Age against the directory's own clock, not this host's: see
        # _directory_now (NFS-grade clock skew must not sweep a live
        # writer's temp or immortalize a crashed one).
        cutoff = self._directory_now() - TMP_SWEEP_AGE_S
        for name in sorted(n for n in names if n.endswith(".tmp")):
            path = os.path.join(self.root, name)
            try:
                if os.stat(path).st_mtime > cutoff:
                    continue   # possibly an in-flight writer
            except OSError:
                continue
            stale.append((name, "stray writer temp"))
            if not dry_run:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return GCReport(stale=stale, kept=kept, removed=removed)

    def keys(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n[:-5] for n in names
                      if n.endswith(".json") and len(n) == 69)

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the count."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json") or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return len(self.keys())
