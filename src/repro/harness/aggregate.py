"""Result tables: a small frame over run rows, and the store query.

A :class:`Frame` is a table of per-run rows with one verb,
:meth:`Frame.where`.  Each row is a plain dict: the spec's
:meth:`~repro.harness.spec.RunSpec.axes` columns plus
:data:`METRIC_COLUMNS`.  The figures do not use it (each figure's
reducer looks its points up by spec, see
:mod:`repro.harness.experiments`).

:func:`store_frame` builds one straight from a store directory,
*without* executing anything: the CLI's ``query`` command renders it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.cpu.result import RunResult
from repro.harness import cache as run_cache
from repro.harness.spec import RunSpec, spec_from_payload

#: Scalar result metrics surfaced as frame columns.
METRIC_COLUMNS = ("total_ipc", "row_hit_rate", "mechanism_hit_rate",
                  "mem_cycles", "cpu_cycles", "activations",
                  "act_reduced", "reads", "writes", "refreshes",
                  "llc_hit_rate", "average_read_latency_cycles")


class Frame:
    """A small in-memory table of result rows (see module doc).

    ``rows`` is a sequence of plain dicts; a derived frame shares its
    parent's row dicts (rows are treated as immutable records).
    """

    def __init__(self, rows: Iterable[Dict]):
        self.rows: List[Dict] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def where(self, predicate: Optional[Callable[[Dict], bool]] = None,
              **equals) -> "Frame":
        """Rows matching every ``column=value`` filter (and the
        optional predicate), original order preserved."""
        out = []
        for row in self.rows:
            if any(row.get(column) != value
                   for column, value in equals.items()):
                continue
            if predicate is not None and not predicate(row):
                continue
            out.append(row)
        return Frame(out)


# ----------------------------------------------------------------------
# Row construction
# ----------------------------------------------------------------------

def point_row(spec: RunSpec, result: RunResult) -> Dict:
    """One frame row: the spec's axes plus scalar result metrics."""
    row = spec.axes()
    for name in METRIC_COLUMNS:
        row[name] = getattr(result, name)
    return row


def store_frame(source, **filters) -> Frame:
    """Frame straight from stored results — no execution.

    ``source`` is a :class:`~repro.harness.cache.RunCache` or its
    directory path.  Every readable envelope becomes one row: the
    spec's axes, its ``key`` and the result metrics; corrupt envelopes
    are skipped.  ``filters`` are exact-match column filters.
    """
    if isinstance(source, str):
        source = run_cache.RunCache(source)
    frame_rows = []
    for key in source.keys():
        envelope = source.get_envelope(key)
        if envelope is None:
            continue
        try:
            spec = spec_from_payload(envelope["spec"])
            result = run_cache.result_from_json(envelope["result"])
        except (ValueError, KeyError, TypeError):
            continue  # corrupt entries are misses here too
        row = point_row(spec, result)
        row["key"] = key
        frame_rows.append(row)
    frame = Frame(frame_rows)
    return frame.where(**filters) if filters else frame
