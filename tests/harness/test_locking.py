"""Tests for the advisory cross-process file lock."""

import os
import subprocess
import sys
import time

import pytest

from repro.harness import locking
from repro.harness.locking import FileLock, LockTimeout


class TestFileLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = FileLock(str(tmp_path / "db.lock"))
        assert not lock.held
        lock.acquire()
        assert lock.held
        assert os.path.exists(lock.path)
        lock.release()
        assert not lock.held
        # Release is idempotent.
        lock.release()

    def test_context_manager(self, tmp_path):
        lock = FileLock(str(tmp_path / "db.lock"))
        with lock as held:
            assert held is lock
            assert lock.held
        assert not lock.held

    def test_reacquire_while_held_raises(self, tmp_path):
        lock = FileLock(str(tmp_path / "db.lock"))
        with lock:
            with pytest.raises(RuntimeError, match="already held"):
                lock.acquire()
        # Releasable and reusable afterwards.
        with lock:
            assert lock.held

    def test_second_instance_excluded_until_release(self, tmp_path):
        path = str(tmp_path / "db.lock")
        first = FileLock(path)
        second = FileLock(path, timeout_s=0.15, poll_s=0.01)
        with first:
            started = time.monotonic()
            with pytest.raises(LockTimeout):
                second.acquire()
            assert time.monotonic() - started >= 0.15
        with second:  # freed now
            assert second.held

    def test_negative_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FileLock(str(tmp_path / "db.lock"), timeout_s=-1)

    def test_excludes_across_processes(self, tmp_path):
        """A child process holding the lock blocks the parent; the
        parent gets in as soon as the child lets go."""
        path = str(tmp_path / "db.lock")
        release_flag = str(tmp_path / "release-me")
        script = (
            "import os, sys, time\n"
            "from repro.harness.locking import FileLock\n"
            "lock = FileLock(sys.argv[1])\n"
            "with lock:\n"
            "    print('locked', flush=True)\n"
            "    while not os.path.exists(sys.argv[2]):\n"
            "        time.sleep(0.01)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.getcwd(), "src"),
                          env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-c", script, path, release_flag],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            assert child.stdout.readline().strip() == "locked"
            contender = FileLock(path, timeout_s=0.2, poll_s=0.01)
            with pytest.raises(LockTimeout):
                contender.acquire()
            open(release_flag, "w").close()
            assert child.wait(timeout=30) == 0
            with FileLock(path, timeout_s=10.0):
                pass
        finally:
            if child.poll() is None:
                child.kill()


class TestLockTimeout:
    def test_is_a_timeout_error(self):
        assert issubclass(LockTimeout, TimeoutError)

    def test_message_names_path_and_budget(self, tmp_path):
        path = str(tmp_path / "db.lock")
        holder = FileLock(path)
        contender = FileLock(path, timeout_s=0.05, poll_s=0.01)
        with holder:
            with pytest.raises(LockTimeout) as excinfo:
                contender.acquire()
        assert path in str(excinfo.value)
        assert "0.1s" in str(excinfo.value)

    def test_zero_timeout_fails_fast_when_contended(self, tmp_path):
        path = str(tmp_path / "db.lock")
        holder = FileLock(path)
        contender = FileLock(path, timeout_s=0.0, poll_s=0.01)
        with holder:
            started = time.monotonic()
            with pytest.raises(LockTimeout):
                contender.acquire()
            assert time.monotonic() - started < 1.0
        with contender:  # still usable once freed
            assert contender.held

    def test_loser_does_not_leak_the_lock(self, tmp_path):
        """A timed-out acquire leaves no half-held state behind."""
        path = str(tmp_path / "db.lock")
        holder = FileLock(path)
        contender = FileLock(path, timeout_s=0.05, poll_s=0.01)
        with holder:
            with pytest.raises(LockTimeout):
                contender.acquire()
            assert not contender.held
        # The loser's cleanup must not have unlinked or unlocked
        # anything out from under a future winner.
        with FileLock(path, timeout_s=1.0):
            pass


class TestExclusiveCreateFallback:
    """The O_EXCL spin-lock used where fcntl is unavailable.

    ``fcntl = None`` is the module's own non-POSIX degradation
    (locking.py's import guard); monkeypatching it exercises that
    exact branch on POSIX hosts.
    """

    @pytest.fixture()
    def no_fcntl(self, monkeypatch):
        monkeypatch.setattr(locking, "fcntl", None)

    def test_acquire_creates_release_unlinks(self, no_fcntl,
                                             tmp_path):
        lock = FileLock(str(tmp_path / "db.lock"))
        lock.acquire()
        assert lock.held
        assert os.path.exists(lock.path)
        # The lockfile records the owner for post-mortem debugging.
        assert open(lock.path).read() == str(os.getpid())
        lock.release()
        assert not lock.held
        assert not os.path.exists(lock.path)

    def test_reuse_after_release(self, no_fcntl, tmp_path):
        lock = FileLock(str(tmp_path / "db.lock"))
        for _ in range(3):
            with lock:
                assert lock.held
            assert not os.path.exists(lock.path)

    def test_contention_times_out(self, no_fcntl, tmp_path):
        path = str(tmp_path / "db.lock")
        first = FileLock(path)
        second = FileLock(path, timeout_s=0.1, poll_s=0.01)
        with first:
            started = time.monotonic()
            with pytest.raises(LockTimeout):
                second.acquire()
            assert time.monotonic() - started >= 0.1
        with second:
            assert second.held

    def test_reacquire_while_held_raises(self, no_fcntl, tmp_path):
        lock = FileLock(str(tmp_path / "db.lock"))
        with lock:
            with pytest.raises(RuntimeError, match="already held"):
                lock.acquire()

    def test_stale_file_from_flock_mode_blocks_until_removed(
            self, no_fcntl, tmp_path):
        """An existing lockfile (e.g. left by flock mode, which never
        unlinks) reads as held to the fallback — consistent, if
        conservative."""
        path = tmp_path / "db.lock"
        path.write_text("12345")
        lock = FileLock(str(path), timeout_s=0.05, poll_s=0.01)
        with pytest.raises(LockTimeout):
            lock.acquire()
        path.unlink()
        with lock:
            assert lock.held

    def test_excludes_across_processes(self, no_fcntl, tmp_path):
        """Same cross-process drill as flock, forced onto O_EXCL in
        both parent and child."""
        path = str(tmp_path / "db.lock")
        release_flag = str(tmp_path / "release-me")
        script = (
            "import os, sys, time\n"
            "from repro.harness import locking\n"
            "locking.fcntl = None\n"
            "lock = locking.FileLock(sys.argv[1])\n"
            "with lock:\n"
            "    print('locked', flush=True)\n"
            "    while not os.path.exists(sys.argv[2]):\n"
            "        time.sleep(0.01)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.getcwd(), "src"),
                          env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-c", script, path, release_flag],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            assert child.stdout.readline().strip() == "locked"
            contender = FileLock(path, timeout_s=0.2, poll_s=0.01)
            with pytest.raises(LockTimeout):
                contender.acquire()
            open(release_flag, "w").close()
            assert child.wait(timeout=30) == 0
            with FileLock(path, timeout_s=10.0):
                pass
        finally:
            if child.poll() is None:
                child.kill()
