"""Work claiming for distributed sweeps: lease files in the store.

The run store is one directory of content-addressed envelopes
(:class:`~repro.harness.cache.RunCache`).  A distributed sweep
(:func:`repro.harness.pool.execute_sweep` with a ``claimer``) needs
one more thing from it: across every process and host pointing at
that directory, exactly one must simulate each key.
:class:`FileClaimer` provides it with lease files next to the
envelopes::

    <store>/claims.lock          FileLock taken around each claim batch
    <store>/claims/<key>.lease   "owner is computing key" (text: owner)

A key is in exactly one of three states — *free* (no lease, no
envelope), *claimed* (lease present) or *done* (envelope present,
lease gone).  The winner writes the envelope first and only then
unlinks its lease, so a claimer that finds neither a lease nor an
envelope may safely start the key, and a claimer that finds the
envelope knows the key is finished.  A lease whose mtime is older than
``steal_stale_s`` on the directory's own clock
(:meth:`RunCache._directory_now`) belonged to a dead or stalled
worker and may be stolen; the lock makes the check-and-rewrite atomic,
so two stealers of one stale lease cannot both win.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.harness.cache import CLAIMS_DIR, LEASE_SUFFIX, RunCache
from repro.harness.locking import FileLock


class FileClaimer:
    """Exactly-one-winner claims over a shared store directory.

    ``claim_many`` decides a chunk of keys under one
    :class:`~repro.harness.locking.FileLock` on ``<root>/claims.lock``;
    for each key, in order:

    * a fresh lease exists → lose (a peer is computing it);
    * the lease is stale and ``steal_stale_s`` is set → rewrite the
      lease and win (its owner died);
    * the envelope exists → lose (the key is done);
    * otherwise → create the lease and win.

    ``done`` and ``release`` unlink the lease.  ``steal_stale_s=None``
    never steals.
    """

    def __init__(self, cache: RunCache, owner: Optional[str] = None,
                 steal_stale_s: Optional[float] = None):
        self.cache = cache
        self.owner = owner
        self.steal_stale_s = steal_stale_s
        self.lock = FileLock(os.path.join(cache.root, "claims.lock"))

    def lease_path(self, key: str) -> str:
        return os.path.join(self.cache.root, CLAIMS_DIR,
                            key + LEASE_SUFFIX)

    def claim_many(self, keys: Sequence[str]) -> List[bool]:
        """One win/lose flag per key, decided in one locked batch."""
        wins = []
        with self.lock:
            os.makedirs(os.path.join(self.cache.root, CLAIMS_DIR),
                        exist_ok=True)
            now = self.cache._directory_now()
            for key in keys:
                try:
                    age = now - os.stat(self.lease_path(key)).st_mtime
                except FileNotFoundError:
                    won = not self.cache.contains(key)
                else:
                    won = (self.steal_stale_s is not None
                           and age >= self.steal_stale_s)
                if won:   # create, or rewrite (fresh mtime) on a steal
                    with open(self.lease_path(key), "w",
                              encoding="utf-8") as fh:
                        fh.write(self.owner or "")
                wins.append(won)
        return wins

    def release(self, key: str) -> None:
        """Give up a claim without a result (the worker failed)."""
        try:
            os.unlink(self.lease_path(key))
        except FileNotFoundError:
            pass

    def done(self, key: str) -> None:
        """Mark a claimed key complete; call only once its envelope is
        durable, so peers that find no lease find the envelope."""
        self.release(key)
