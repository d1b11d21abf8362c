"""Sweep journal: a crash-safe log of completed sweep keys.

``execute_sweep(journal=...)`` appends one JSON line per completed
point, flushed and fsynced before the sweep moves on, recording which
key finished and which layer served it.  The sweep never reads the
journal back: a killed sweep resumes because every finished point is
already in the store, which the restarted sweep probes before running
anything.  The journal is the record of what each run did.

Format: JSON lines, one object per completed key::

    {"key": "<64-hex cache key>", "label": "<spec label>",
     "seq": <1-based completion order>, "source": "computed"}

Design points:

* **Idempotent append** — a key is written at most once per journal
  file, so rerunning a sweep over the same journal converges to one
  line per key rather than growing without bound.
* **Torn tails are tolerated** — a writer killed mid-line leaves a
  trailing fragment; the loader skips undecodable lines instead of
  failing, and a rerun records the lost key again.
* **No timestamps** — ordering is the ``seq`` counter, so journal
  bytes are a pure function of completion order and the repro-lint
  determinism rule holds with no pragmas.
* **One journal per sweep process** — the journal is a private log
  (the store is the source of truth for results); concurrent sweeps
  should each get their own file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator


class SweepJournal:
    """Append-only completion log for one sweep (see module doc)."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self._entries: Dict[str, Dict] = {}
        self._fh = None
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="ascii") as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn tail from a killed writer
            key = entry.get("key") if isinstance(entry, dict) else None
            if isinstance(key, str) and key not in self._entries:
                self._entries[key] = entry

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def entries(self) -> Iterator[Dict]:
        """Checkpoint entries in recorded (seq) order."""
        return iter(sorted(self._entries.values(),
                           key=lambda entry: entry.get("seq", 0)))

    # -- recording ------------------------------------------------------

    def record(self, key: str, label: str = "",
               source: str = "computed") -> bool:
        """Checkpoint ``key``; returns False if already present.

        The line is flushed and fsynced before returning: once the
        caller moves on, a crash cannot lose this checkpoint.
        """
        if key in self._entries:
            return False
        entry = {"key": key, "label": label,
                 "seq": len(self._entries) + 1, "source": source}
        if self._fh is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="ascii")
            # A writer killed mid-line leaves the file without a
            # trailing newline; terminate the fragment so the next
            # checkpoint starts on its own line instead of fusing
            # with (and corrupting) the torn tail.
            if self._fh.tell() > 0:
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    if probe.read(1) != b"\n":
                        self._fh.write("\n")
        self._fh.write(json.dumps(entry, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._entries[key] = entry
        return True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
