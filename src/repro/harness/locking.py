"""Cross-process advisory file locks.

Distributed sweeps (:class:`repro.harness.store.FileClaimer`) must admit
exactly one winner per cache key across every process sharing a store
directory, which needs a mutex spanning processes and hosts.
:class:`FileLock` is that mutex: a ``flock``-held sidecar file
(``<store>/claims.lock``) taken around each claim batch.

``fcntl.flock`` is used where available (every POSIX platform); the
fallback is an exclusive-create lockfile spun with a timeout, which is
correct — if slower — on any filesystem with atomic ``O_EXCL``.
Locks are *advisory*: every cooperating writer must go through this
class, and readers never lock at all (the cache's atomic renames keep
reads consistent).
"""

from __future__ import annotations

import errno
import os
import time
from types import TracebackType
from typing import Optional, Type

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class LockTimeout(TimeoutError):
    """The lock could not be acquired within the caller's budget."""


class FileLock:
    """An advisory, exclusive, cross-process lock on a sidecar file.

    Usable as a context manager and re-entrant within one instance is
    deliberately *not* supported: acquiring an already-held instance
    raises, which turns lock-ordering mistakes into immediate errors
    instead of silent self-deadlocks.
    """

    def __init__(self, path: str, timeout_s: float = 30.0,
                 poll_s: float = 0.02):
        if timeout_s < 0:
            raise ValueError("timeout_s must be >= 0")
        self.path = os.path.abspath(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        # Distributed sweeps put dozens of workers on one lock file;
        # identical poll periods make them retry in convoy (every loser
        # wakes into the same contention window).  A small pid-derived
        # stagger (deterministic per process, up to +50%, never part of
        # any result) de-synchronizes the herd.  ``poll_s`` itself is
        # kept as configured for introspection and tests.
        self._poll_stagger_s = poll_s * ((os.getpid() % 16) / 32.0)
        self._fd: Optional[int] = None
        self._exclusive_created = False

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> None:
        if self.held:
            raise RuntimeError(f"lock {self.path!r} is already held "
                               "by this instance")
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        deadline = time.monotonic() + self.timeout_s
        if fcntl is not None:
            self._acquire_flock(deadline)
        else:  # pragma: no cover - non-POSIX fallback
            self._acquire_exclusive_create(deadline)

    def _acquire_flock(self, deadline: float) -> None:
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError as exc:
                    if exc.errno not in (errno.EAGAIN, errno.EACCES):
                        raise
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"could not lock {self.path!r} within "
                        f"{self.timeout_s:.1f}s")
                time.sleep(self.poll_s + self._poll_stagger_s)
        except BaseException:
            os.close(fd)
            raise

    def _acquire_exclusive_create(self, deadline: float) -> None:
        """O_EXCL spin-lock fallback (no flock on this platform)."""
        while True:
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
                os.write(fd, str(os.getpid()).encode("ascii"))
                self._fd = fd
                self._exclusive_created = True
                return
            except FileExistsError:
                pass
            if time.monotonic() >= deadline:
                raise LockTimeout(
                    f"could not lock {self.path!r} within "
                    f"{self.timeout_s:.1f}s")
            time.sleep(self.poll_s + self._poll_stagger_s)

    def release(self) -> None:
        if not self.held:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
            if self._exclusive_created:
                self._exclusive_created = False
                try:
                    os.unlink(self.path)
                except OSError:  # pragma: no cover
                    pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.release()
