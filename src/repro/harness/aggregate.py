"""Unified sweep/store aggregation: one query→frame path.

Every figure used to collate its results ad hoc — nested loops over
modes, names and parameters, each re-requesting runs from the memo and
averaging by hand.  This module replaces that with one shape: execute
(or query) → build a :class:`Frame` of per-point rows (spec axes +
result metrics) → filter/group/average declaratively.

The frame is a deliberately small, dependency-free table:

* rows are plain dicts (spec :meth:`~repro.harness.spec.RunSpec.axes`
  columns plus :data:`METRIC_COLUMNS`),
* arithmetic is plain ``sum(values) / len(values)`` over rows in
  first-seen order — exactly the accumulation the hand-rolled figure
  loops performed, so the refactor is bit-identical,
* :meth:`Frame.to_pandas` hands the same rows to pandas **when it is
  installed** — the toolchain here has no hard pandas dependency, so
  the import is gated and everything else works without it.

Three constructors cover the sources:

* :func:`sweep_frame` — rows from an executed
  :class:`~repro.harness.pool.Sweep` (unique points, spec order);
* :func:`specs_frame` — rows by running specs through the runner's
  read-through stack (memo/store hits, never a duplicate simulation);
* :func:`store_frame` — rows straight from a store directory,
  *without* executing anything: cross-sweep analytics over everything
  a fleet has ever computed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.cpu.system import RunResult
from repro.harness import cache as run_cache
from repro.harness.spec import RunSpec, spec_from_payload

#: Scalar result metrics surfaced as frame columns.
METRIC_COLUMNS = ("total_ipc", "row_hit_rate", "mechanism_hit_rate",
                  "mem_cycles", "cpu_cycles", "activations",
                  "act_reduced", "reads", "writes", "refreshes",
                  "llc_hit_rate", "average_read_latency_cycles")


class Frame:
    """A small in-memory table of result rows (see module doc).

    ``rows`` is a sequence of plain dicts; ``columns`` defaults to the
    union of row keys in first-seen order.  All derived frames share
    the parent's row dicts (rows are treated as immutable records).
    """

    def __init__(self, rows: Iterable[Dict],
                 columns: Optional[Sequence[str]] = None):
        self.rows: List[Dict] = list(rows)
        if columns is None:
            seen: Dict[str, bool] = {}
            for row in self.rows:
                for name in row:
                    seen[name] = True
            columns = list(seen)
        self.columns = list(columns)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # -- relational verbs ----------------------------------------------

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
        return Frame(out, self.columns)

    def column(self, name: str) -> List:
        return [row.get(name) for row in self.rows]

    def pivot(self, key: str, value: str) -> Dict:
        """``{row[key]: row[value]}`` — last row wins on duplicates."""
        return {row.get(key): row.get(value) for row in self.rows}

    def mean(self, name: str) -> float:
        """Plain ``sum/len`` over the column's non-absent values, in
        row order — the figure loops' accumulation, verbatim."""
        values = [row[name] for row in self.rows if name in row]
        return sum(values) / len(values) if values else 0.0

    def groupby(self, keys: Sequence[str]) -> "GroupBy":
        return GroupBy(self, list(keys))

    # -- exits ----------------------------------------------------------

    def to_records(self) -> List[Dict]:
        """Rows as ``{column: value}`` dicts in column order."""
        return [{column: row.get(column) for column in self.columns}
                for row in self.rows]

    def to_pandas(self):
        """The same table as a ``pandas.DataFrame``.

        pandas is an optional dependency of this toolchain; the
        import happens here and nowhere else, and a missing install
        raises with a pointer to the pure-python equivalents.
        """
        try:
            import pandas
        except ImportError as exc:
            raise RuntimeError(
                "pandas is not installed; Frame.where/groupby/mean "
                "cover the built-in aggregations without it"
            ) from exc
        return pandas.DataFrame(self.to_records(),
                                columns=self.columns)


class GroupBy:
    """Deferred group-wise aggregation over a :class:`Frame`."""

    def __init__(self, frame: Frame, keys: List[str]):
        self.keys = keys
        self._groups: Dict[tuple, List[Dict]] = {}
        for row in frame.rows:
            group = tuple(row.get(key) for key in keys)
            self._groups.setdefault(group, []).append(row)

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> Dict[tuple, Frame]:
        """Group key tuple → member frame, first-seen group order."""
        return {group: Frame(rows)
                for group, rows in self._groups.items()}

    def mean(self, *columns: str) -> Frame:
        """One row per group: key columns plus each column's mean."""
        out = []
        for group, rows in self._groups.items():
            row = dict(zip(self.keys, group))
            member = Frame(rows)
            for column in columns:
                row[column] = member.mean(column)
            out.append(row)
        return Frame(out, self.keys + list(columns))


# ----------------------------------------------------------------------
# Row construction
# ----------------------------------------------------------------------

def point_row(spec: RunSpec, result: RunResult,
              performance: bool = False) -> Dict:
    """One frame row: the spec's axes plus scalar result metrics.

    With ``performance`` true the row also carries the figure-level
    ``performance`` column — total IPC for single-core runs, weighted
    speedup against the alone runs for eight-core mixes (which must
    already be warm in the runner, as every figure's sweep declaration
    guarantees).
    """
    row = spec.axes()
    for name in METRIC_COLUMNS:
        row[name] = getattr(result, name)
    if performance:
        if spec.kind == "eight":
            from repro.harness import runner
            from repro.stats.metrics import weighted_speedup
            row["performance"] = weighted_speedup(
                result.ipcs,
                runner.alone_ipcs_for_mix(spec.name, spec.scale))
        else:
            row["performance"] = result.total_ipc
    return row


def sweep_frame(sweep, performance: bool = False) -> Frame:
    """Frame over a :class:`~repro.harness.pool.Sweep`'s unique
    points, in spec order (plus ``source``/``seconds`` provenance)."""
    rows = []
    for point in sweep._unique_points():
        row = point_row(point.spec, point.result,
                        performance=performance)
        row["source"] = point.source
        row["seconds"] = point.seconds
        rows.append(row)
    return Frame(rows)


def specs_frame(specs: Sequence[RunSpec],
                performance: bool = False) -> Frame:
    """Frame by pulling each spec through the runner's read-through
    stack (memo, then persistent store; simulates only on miss)."""
    from repro.harness import runner
    rows = []
    for spec in specs:
        result, source = runner.run_spec_ex(spec)
        row = point_row(spec, result, performance=performance)
        row["source"] = source
        rows.append(row)
    return Frame(rows)


def spec_standard(spec: RunSpec) -> str:
    """The DRAM standard ``spec`` resolves to (a queryable axis).

    Scenario runs carry it in the scenario registry; the paper's fixed
    single/eight/alone platforms are all DDR3-1600.
    """
    if spec.kind == "scenario":
        from repro.harness import scenarios
        return scenarios.scenario(spec.scenario).standard
    return "DDR3-1600"


def store_frame(source, **filters) -> Frame:
    """Frame straight from stored results — no execution.

    ``source`` is a :class:`~repro.harness.cache.RunCache` or its
    directory path.  Every readable envelope becomes one row: the
    spec's axes, its DRAM ``standard``, its ``key`` and the result
    metrics; corrupt envelopes are skipped.  ``filters`` are
    exact-match column filters.
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
        row["standard"] = spec_standard(spec)
        row["key"] = key
        frame_rows.append(row)
    frame = Frame(frame_rows)
    return frame.where(**filters) if filters else frame
