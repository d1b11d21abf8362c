"""CSV export of experiment results.

Downstream users typically want the regenerated figure data in a
plotting tool; every experiment dict produced by
:mod:`repro.harness.experiments` can be flattened to CSV here.

``export_csv`` handles any experiment with a ``rows`` list; ``fig6``
(two waveforms) gets a dedicated wide format with one row per time
sample.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence


def _flatten_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "/".join(str(v) for v in value)
    return str(value)


def rows_to_csv(rows: Sequence[Dict],
                columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as CSV text (column order from the first row)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_flatten_value(row.get(c, "")) for c in columns])
    return out.getvalue()


def _fig6_rows(result: Dict) -> List[Dict]:
    full = dict(result["full"]["curve"])
    partial = dict(result["partial"]["curve"])
    rows = []
    for t in sorted(set(full) | set(partial)):
        rows.append({
            "time_ns": t,
            "bitline_v_full": full.get(t, ""),
            "bitline_v_partial": partial.get(t, ""),
        })
    return rows


def export_csv(result: Dict) -> str:
    """CSV text for one experiment result dict."""
    if result.get("id") == "fig6":
        return rows_to_csv(_fig6_rows(result))
    rows = result.get("rows")
    if rows is None:
        # Scalar experiments (sec6.3, table1): one row of key/values.
        flat = {k: v for k, v in result.items()
                if not isinstance(v, (dict, list)) or k == "id"}
        return rows_to_csv([flat])
    return rows_to_csv(rows)


def export_cache_manifest(results: Dict[str, Dict]) -> str:
    """CSV of sweep-point provenance across experiments.

    One row per sweep point of every experiment that carries a
    ``"cache"`` annotation: which point it was, whether it was served
    from the persistent cache ("disk"), the in-process memo
    ("memory"), or simulated fresh ("computed"), which engine ran it,
    and the batch group (points computed through one shared
    ``System.run_batch`` trace replay share a group id; "" for points
    that ran alone or were cache hits).  Returns "" when no experiment
    was annotated (e.g. table1/table2/fig6 only).
    """
    rows = []
    for name, result in results.items():
        info = result.get("cache")
        if not info:
            continue
        for point in info.get("points_detail", []):
            rows.append({
                "experiment": name,
                "point": point["label"],
                "source": point["source"],
                "cache_hit": point["source"] != "computed",
                "cache_key": point.get("key", ""),
                "engine": point.get("engine", ""),
                "batch_group": point.get("batch_group", ""),
            })
    return rows_to_csv(rows)


def write_csv(result: Dict, path: str) -> str:
    """Write an experiment's CSV to ``path``; returns the path."""
    text = export_csv(result)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return path
