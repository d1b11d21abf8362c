"""ASCII rendering of experiment results (harness + CLI output)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def format_percent(value: float, digits: int = 1) -> str:
    return f"{value * 100:.{digits}f}%"


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Simple fixed-width table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_experiment(result: Dict) -> str:
    """Render any experiment dict produced by repro.harness.experiments.

    Deliberately *excludes* the ``"cache"`` sweep-provenance annotation:
    the rendered artifact must be byte-identical regardless of cache
    state, pool width, or engine, so it can be diffed across
    invocations (the CLI prints :func:`render_cache_annotation` to
    stderr instead).
    """
    exp_id = result.get("id", "experiment")
    renderer = _RENDERERS.get(exp_id.rstrip("ab"), _render_generic)
    return renderer(result)


def render_cache_annotation(info: Optional[Dict]) -> str:
    """One-line sweep provenance summary ('' when not annotated)."""
    if not info:
        return ""
    cached = info.get("disk", 0) + info.get("memory", 0)
    batched = info.get("batched", 0)
    batch_note = f" ({batched} batched)" if batched else ""
    return (f"[run cache: {cached}/{info['points']} points were hits "
            f"({info.get('disk', 0)} disk, {info.get('memory', 0)} "
            f"memo); {info.get('computed', 0)} simulated{batch_note}, "
            f"jobs={info.get('jobs', 1)}]")


def _render_generic(result: Dict) -> str:
    rows = result.get("rows")
    if not rows:
        return str(result)
    first = rows[0]
    headers = list(first)
    table_rows = [[row.get(h, "") for h in headers] for row in rows]
    return format_table(headers, table_rows, title=result.get("id"))


def _render_fig6(result: Dict) -> str:
    lines = [f"fig6: bitline transients "
             f"(model tRCD headroom {result['trcd_reduction_ns']:.2f} ns, "
             f"tRAS headroom {result['tras_reduction_ns']:.2f} ns; "
             f"paper: 4.5 / 9.6 ns)"]
    for label in ("full", "partial"):
        curve = result[label]
        lines.append(f"  {label}: ready {curve['ready_ns']:.2f} ns, "
                     f"restore {curve['restore_ns']:.2f} ns")
    lines.append("  time_ns  full_V  partial_V")
    full = dict(result["full"]["curve"])
    partial = dict(result["partial"]["curve"])
    for t in sorted(set(full) | set(partial))[:25]:
        fv = full.get(t, "")
        pv = partial.get(t, "")
        lines.append(f"  {t:7} {_fmt(fv):>7} {_fmt(pv):>9}")
    return "\n".join(lines)


def _render_sec63(result: Dict) -> str:
    paper = result["paper"]
    rows = [
        ("storage (bytes)", result["storage_bytes"],
         paper["storage_bytes"]),
        ("area (mm^2)", round(result["area_mm2"], 4), paper["area_mm2"]),
        ("area / LLC", format_percent(result["area_fraction_of_llc"], 2),
         format_percent(paper["area_fraction_of_llc"], 2)),
        ("avg power (mW)", round(result["average_power_mw"], 3),
         paper["average_power_mw"]),
        ("power / LLC", format_percent(result["power_fraction_of_llc"], 2),
         format_percent(paper["power_fraction_of_llc"], 2)),
    ]
    # Overhead of the actual run config (coincides with the paper's
    # design point on the default eight-core platform).
    if "config_storage_bytes" in result:
        rows += [
            ("run-config storage (bytes)",
             result["config_storage_bytes"], "-"),
            ("run-config area (mm^2)",
             round(result["config_area_mm2"], 4), "-"),
            ("run-config avg power (mW)",
             round(result["config_average_power_mw"], 3), "-"),
        ]
    return format_table(("metric", "measured", "paper"), rows,
                        title="sec6.3: ChargeCache hardware overhead")


#: Calibrate columns rendered as percentages (fractions in the dict).
_CALIBRATE_PERCENT_COLS = ("rltl_1ms", "ref_rltl_1ms", "d_rltl",
                           "row_hit", "ref_row_hit", "d_row_hit",
                           "sim_row_hit", "cc_speedup")


def _render_calibrate(result: Dict) -> str:
    """Fingerprint-calibration table plus the drift/average footer."""
    rows = result.get("rows") or []
    if not rows:
        return str(result)
    headers = list(rows[0])
    table_rows = []
    for row in rows:
        cells = []
        for h in headers:
            value = row.get(h, "")
            if h in _CALIBRATE_PERCENT_COLS and isinstance(value, float):
                value = format_percent(value, 1)
            cells.append(value)
        table_rows.append(cells)
    title = (f"calibrate: fingerprints @ "
             f"{result.get('fingerprint_records', '?')} records, "
             f"deltas at {result.get('interval_ms', '?')} ms RLTL")
    table = format_table(headers, table_rows, title=title)
    drift = result.get("drift", [])
    footer = (f"avg 1ms-RLTL {format_percent(result['avg_rltl_1ms'], 1)} "
              f"(paper Fig 4a: "
              f"{format_percent(result['paper_avg_rltl_1ms'], 0)}); "
              + (f"DRIFT: {', '.join(drift)}" if drift
                 else "all workloads within tolerance"))
    return f"{table}\n{footer}"


_RENDERERS = {
    "fig6": _render_fig6,
    "sec6.3": _render_sec63,
    "calibrate": _render_calibrate,
}
