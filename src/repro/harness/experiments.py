"""The paper's tables and figures: one :data:`FIGURES` entry each.

An entry is a :class:`Figure`: a **sweep** declaring the flat list of
:class:`~repro.harness.spec.RunSpec` points the artifact needs (the
alone-runs behind weighted speedup included), and a **reducer**
shaping the executed points into a plain, JSON-friendly result dict
with a ``rows`` list like the paper's artifact.  :func:`run` is the
one way to produce an artifact: it executes the sweep through
:func:`repro.harness.pool.execute_sweep` (worker processes, persistent
run cache), hands the reducer a ``{spec: result}`` map of exactly the
executed points — a point the sweep did not declare is a
:class:`KeyError`, never a silent extra simulation — and attaches a
``"cache"`` annotation recording where each point came from.

Sweeps compose: :func:`prefetch_experiments` executes the deduplicated
union of any set of entries' sweeps through **one** shared pool, so
the CLI's ``all`` never idles workers at one figure's sweep tail; each
entry's own :func:`run` then finds every point in the memo (DESIGN.md
section 5).  The CLI's experiment choices, ``all`` and ``--mechanisms``
read this table too.  Workload subsets default to the full paper sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.config import (BANKS_PER_RANK, DEFAULT_CPU_FREQ_GHZ,
                          ISSUE_WIDTH, LINE_BYTES, MSHRS_PER_CORE,
                          RANKS_PER_CHANNEL, ROW_BUFFER_BYTES, WINDOW_SIZE)
from repro.cpu.result import RunResult
from repro.dram.timing import DDR3_1600
from repro.dram.standards import derated_reduction_cycles
from repro.harness import pool, runner
from repro.harness.runner import (
    Scale,
    alone_specs_for_mix,
    current_scale,
    mix_spec,
    trace_spec,
    workload_spec,
)
from repro.harness.spec import RunSpec, dedupe_specs
from repro.stats.metrics import weighted_speedup
from repro.workloads.mixes import MIX_NAMES
from repro.workloads.spec_like import WORKLOAD_NAMES

#: Mechanisms compared in Figure 7 (plus the implicit baseline).
FIG7_MECHANISMS = ("nuat", "chargecache", "chargecache+nuat", "lldram")

#: Capacity sweep of Figures 9/10 (entries).
FIG9_CAPACITIES = (64, 128, 256, 512, 1024, 2048)

#: Caching-duration sweep of Figure 11 (ms).
FIG11_DURATIONS = (1.0, 4.0, 8.0, 16.0)

#: RLTL intervals of Figure 4 (ms).
FIG4_INTERVALS = (0.125, 0.25, 0.5, 1.0, 32.0)

#: Both paper platforms: applications (single) and mixes (eight).
BOTH_MODES = ("single", "eight")

#: A ``{spec: result}`` map of one sweep's executed points.
Points = Mapping[RunSpec, RunResult]

#: A ``--workloads`` filter: application/mix names, None = all.
Names = Optional[Sequence[str]]


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the pool width used by every subsequent experiment sweep."""
    runner.set_execution(replace(runner.execution, jobs=jobs))


def set_progress(progress) -> None:
    """Install a progress callback for sweep execution (None = quiet)."""
    runner.set_execution(replace(runner.execution, progress=progress))


@dataclass(frozen=True)
class Figure:
    """One paper artifact.

    ``sweep(workloads=, scale=, **params)`` declares its spec list;
    ``reduce(points, workloads=, scale=, **params)`` shapes the
    executed ``points`` (entries without a sweep: ``reduce(**params)``).
    ``params`` tell fig3a from fig3b and hold the paper's axes, which
    :func:`run` lets a caller override.  ``modes`` name what a
    ``workloads`` filter may hold: "single" applications, "eight"
    mixes; ``()`` when the entry takes no filter.
    """

    reduce: Callable[..., Dict]
    sweep: Optional[Callable[..., List[RunSpec]]] = None
    params: Mapping[str, object] = field(default_factory=dict)
    modes: Tuple[str, ...] = ()


def run(name: str, workloads: Names = None,
        scale: Optional[Scale] = None, **params) -> Dict:
    """The artifact of :data:`FIGURES` entry ``name``; ``params``
    override the entry's own (``run("fig9", capacities=(64, 256))``)."""
    figure = FIGURES[name]
    params = {**figure.params, **params}
    if figure.sweep is None:
        return figure.reduce(**params)
    scale = scale or current_scale()
    sweep = pool.execute_sweep(
        figure.sweep(workloads=workloads, scale=scale, **params))
    points = {point.spec: point.result for point in sweep.points}
    result = figure.reduce(points, workloads=workloads, scale=scale,
                           **params)
    result["cache"] = sweep.annotation()
    return result


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _cc(entries: Optional[int] = None, duration_ms: Optional[float] = None,
        unbounded: bool = False) -> str:
    """A parameterized ChargeCache mechanism spec string:
    ``_cc(entries=256)`` -> ``"chargecache(entries=256)"``.

    Normalization folds inline parameters into the RunSpec's canonical
    fields, so a reducer rebuilding ``_cc(entries=128)`` finds the
    plain ``chargecache`` point the sweep declared.
    """
    params = []
    if entries is not None:
        params.append(f"entries={entries}")
    if duration_ms is not None:
        params.append(f"duration_ms={duration_ms!r}")
    if unbounded:
        params.append("unbounded=true")
    return f"chargecache({','.join(params)})" if params else "chargecache"


# ----------------------------------------------------------------------
# Sweep points and the per-mode grid
# ----------------------------------------------------------------------

def _mode_names(mode: str) -> Sequence[str]:
    """The names ``mode`` runs: applications (single) or mixes."""
    return WORKLOAD_NAMES if mode == "single" else MIX_NAMES


def _names_for(mode: str, workloads: Names,
               modes: Optional[Sequence[str]] = None) -> List[str]:
    """The names ``mode`` runs out of a ``--workloads`` filter.

    Without a filter, every name of the mode.  With one, the names the
    mode knows, in the filter's order: a multi-mode experiment such as
    fig9 gives application names to its single-core half and mix names
    to its eight-core half.  A name that none of ``modes`` (default:
    just ``mode``) knows raises :class:`ValueError`.
    """
    known = _mode_names(mode)
    if workloads is None:
        return list(known)
    modes = modes or (mode,)
    unknown = [name for name in workloads
               if not any(name in _mode_names(m) for m in modes)]
    if unknown:
        raise ValueError(
            f"unknown workload or mix {', '.join(map(repr, unknown))} "
            f"for mode {'/'.join(modes)}")
    return [name for name in workloads if name in known]


def _spec(mode: str, name: str, mechanism: str, scale: Scale,
          **kwargs) -> RunSpec:
    """One sweep point on the paper's single- or eight-core system."""
    if mode == "single":
        return workload_spec(name, mechanism, scale, **kwargs)
    return mix_spec(name, mechanism, scale, **kwargs)


def _grid(modes: Sequence[str], workloads: Names,
          scale: Scale, mechanisms: Sequence[str],
          weighted: bool = False, **kwargs) -> List[RunSpec]:
    """Each mode's names x ``mechanisms`` (``kwargs``: shared spec
    fields); ``weighted`` appends an eight-core mode's alone runs, which
    :func:`_performance` needs."""
    specs = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        specs += [_spec(mode, name, mech, scale, **kwargs)
                  for name in names for mech in mechanisms]
        if weighted and mode == "eight":
            specs += [s for mix in names
                      for s in alone_specs_for_mix(mix, scale)]
    return specs


def _performance(points: Points, mode: str, name: str, mechanism: str,
                 scale: Scale) -> float:
    """IPC (single-core) or weighted speedup (eight-core): the
    harness's one weighted-speedup computation, against the alone runs
    ``_grid(..., weighted=True)`` declares."""
    result = points[_spec(mode, name, mechanism, scale)]
    if mode == "single":
        return result.total_ipc
    alone = [points[spec].total_ipc
             for spec in alone_specs_for_mix(name, scale)]
    return weighted_speedup(result.ipcs, alone)


# ----------------------------------------------------------------------
# Figure 3: 8ms-RLTL vs accessed-within-8ms-of-refresh
# ----------------------------------------------------------------------

def _fig3_specs(mode: str, workloads: Names, scale: Scale) -> List[RunSpec]:
    return _grid((mode,), workloads, scale, ("none",), enable_rltl=True)


def _fig3(points: Points, mode: str, workloads: Names, scale: Scale) -> Dict:
    """Fraction of activations within 8 ms of own precharge vs refresh."""
    rows = []
    for name in _names_for(mode, workloads):
        probe = points[_spec(mode, name, "none", scale,
                             enable_rltl=True)].rltl
        rows.append({
            "workload": name,
            "rltl_8ms": probe.rltl(8.0),
            "refresh_8ms": probe.refresh_fraction(8.0),
            "activations": probe.activations,
        })
    rows.append({
        "workload": "AVG",
        "rltl_8ms": _mean(r["rltl_8ms"] for r in rows),
        "refresh_8ms": _mean(r["refresh_8ms"] for r in rows),
        "activations": sum(r["activations"] for r in rows),
    })
    return {"id": f"fig3{'a' if mode == 'single' else 'b'}",
            "mode": mode, "time_scale": scale.time_scale, "rows": rows}


# ----------------------------------------------------------------------
# Figure 4: RLTL vs interval, open vs closed row policy
# ----------------------------------------------------------------------

def _fig4_specs(mode: str, workloads: Names, scale: Scale,
                intervals_ms: Sequence[float]) -> List[RunSpec]:
    del intervals_ms  # read off each run's probe by the reducer
    return [_spec(mode, name, "none", scale, enable_rltl=True,
                  row_policy=policy)
            for name in _names_for(mode, workloads)
            for policy in ("open", "closed")]


def _fig4(points: Points, mode: str, workloads: Names,
          scale: Scale, intervals_ms: Sequence[float]) -> Dict:
    """t-RLTL for several intervals under both row policies."""
    rows = []
    for name in _names_for(mode, workloads):
        row = {"workload": name}
        for policy in ("open", "closed"):
            probe = points[_spec(mode, name, "none", scale,
                                 enable_rltl=True, row_policy=policy)].rltl
            for interval in intervals_ms:
                row[f"{policy}_{interval}ms"] = probe.rltl(interval)
        rows.append(row)
    avg = {"workload": "AVG"}
    for key in rows[0]:
        if key != "workload":
            avg[key] = _mean(r[key] for r in rows)
    rows.append(avg)
    return {"id": f"fig4{'a' if mode == 'single' else 'b'}",
            "mode": mode, "intervals_ms": list(intervals_ms),
            "time_scale": scale.time_scale, "rows": rows}


# ----------------------------------------------------------------------
# Figure 6: bitline voltage transients
# ----------------------------------------------------------------------

def _fig6(partial_age_ms: float, samples: int) -> Dict:
    """Bitline voltage vs time for fully vs partially charged cells."""
    from repro.circuit.spice import bitline_transient
    full = bitline_transient(0.0, t_end_ns=45.0)
    partial = bitline_transient(partial_age_ms, t_end_ns=45.0)

    def sample(tr):
        step = max(1, len(tr.times_ns) // samples)
        return [(round(tr.times_ns[i], 2), round(tr.bitline_v[i], 4))
                for i in range(0, len(tr.times_ns), step)]

    return {
        "id": "fig6",
        "full": {
            "ready_ns": full.ready_time_ns,
            "restore_ns": full.restore_time_ns,
            "curve": sample(full),
        },
        "partial": {
            "age_ms": partial_age_ms,
            "ready_ns": partial.ready_time_ns,
            "restore_ns": partial.restore_time_ns,
            "curve": sample(partial),
        },
        "trcd_reduction_ns": partial.ready_time_ns - full.ready_time_ns,
        "tras_reduction_ns": partial.restore_time_ns - full.restore_time_ns,
        "paper": {"ready_full_ns": 10.0, "ready_partial_ns": 14.5,
                  "trcd_reduction_ns": 4.5, "tras_reduction_ns": 9.6},
    }


# ----------------------------------------------------------------------
# Table 2: caching duration -> tRCD/tRAS
# ----------------------------------------------------------------------

def _table2() -> Dict:
    """Published vs model-derived duration->timing table."""
    from repro.circuit.latency_tables import (
        BASELINE_TIMINGS_NS,
        DURATION_TABLE_NS,
        reductions_for_duration_ms,
    )
    from repro.circuit.spice import derive_timing_table
    model = derive_timing_table(tuple(DURATION_TABLE_NS))
    rows = [{
        "duration_ms": "baseline",
        "paper_trcd_ns": BASELINE_TIMINGS_NS[0],
        "paper_tras_ns": BASELINE_TIMINGS_NS[1],
        "model_trcd_ns": BASELINE_TIMINGS_NS[0],
        "model_tras_ns": BASELINE_TIMINGS_NS[1],
        "reduction_cycles": (0, 0),
    }]
    for duration, (trcd, tras) in sorted(DURATION_TABLE_NS.items()):
        m_trcd, m_tras = model[duration]
        rows.append({
            "duration_ms": duration,
            "paper_trcd_ns": trcd,
            "paper_tras_ns": tras,
            "model_trcd_ns": round(m_trcd, 2),
            "model_tras_ns": round(m_tras, 2),
            "reduction_cycles": reductions_for_duration_ms(duration),
        })
    return {"id": "table2", "rows": rows}


# ----------------------------------------------------------------------
# Figure 7: speedups
# ----------------------------------------------------------------------

def _fig7_specs(mode: str, workloads: Names, scale: Scale,
                mechanisms: Sequence[str] = FIG7_MECHANISMS) -> List[RunSpec]:
    return _grid((mode,), workloads, scale,
                 ("none",) + tuple(mechanisms), weighted=True)


def _fig7(points: Points, mode: str, workloads: Names,
          scale: Scale, mechanisms: Sequence[str]) -> Dict:
    """Speedup of each mechanism over baseline, plus RMPKC.

    ``mechanisms`` accepts any registry spec strings (plain names,
    compositions, inline parameters); the entry's default is the
    paper's Figure 7 set.
    """
    rows = []
    for name in _names_for(mode, workloads):
        row = {"workload": name}
        base = _performance(points, mode, name, "none", scale)
        row["rmpkc"] = points[_spec(mode, name, "none", scale)].rmpkc()
        for mech in mechanisms:
            perf = _performance(points, mode, name, mech, scale)
            row[mech] = perf / base - 1.0 if base else 0.0
        row["base_ipc" if mode == "single" else "base_ws"] = base
        rows.append(row)
    avg = {"workload": "AVG",
           "rmpkc": _mean(r["rmpkc"] for r in rows)}
    for mech in mechanisms:
        avg[mech] = _mean(r[mech] for r in rows)
    rows.sort(key=lambda r: r["rmpkc"])
    rows.append(avg)
    return {"id": f"fig7{'a' if mode == 'single' else 'b'}",
            "mode": mode, "mechanisms": list(mechanisms), "rows": rows}


def run_fig7(mode: str = "single", workloads: Names = None,
             scale: Optional[Scale] = None) -> Dict:
    """Figure 7a/7b (a named entry point the benchmark tracer patches)."""
    return run(f"fig7{'a' if mode == 'single' else 'b'}", workloads, scale)


# ----------------------------------------------------------------------
# Figure 8: DRAM energy reduction
# ----------------------------------------------------------------------

def _fig8_specs(modes: Sequence[str], workloads: Names,
                scale: Scale) -> List[RunSpec]:
    return _grid(modes, workloads, scale, ("none", "chargecache"),
                 idle_finished=True)


def _energy_reduction(base, cc) -> Optional[float]:
    """Fractional energy-per-instruction saving of ``cc`` over ``base``.

    Both runs are billed by :func:`energy_for_run`, and the HCRAC power
    charged against ChargeCache comes from :func:`overhead_for_config`
    of the *actual* run config — not the paper's fixed
    8-core/2-channel design point.  Returns ``None`` when the
    comparison is undefined (no energy or no retired work).
    """
    from repro.energy.drampower import access_rate_for_run, energy_for_run
    from repro.energy.mcpat import overhead_for_config
    overhead = overhead_for_config(cc.config)
    rate = access_rate_for_run(cc)
    e_base = energy_for_run(base)
    e_cc = energy_for_run(cc,
                          mechanism_power_w=overhead.average_power_w(rate))
    if e_base.total_pj <= 0 or base.work_instructions <= 0 \
            or cc.work_instructions <= 0:
        return None
    per_inst_base = e_base.total_pj / base.work_instructions
    per_inst_cc = e_cc.total_pj / cc.work_instructions
    return 1.0 - per_inst_cc / per_inst_base


def _fig8(points: Points, modes: Sequence[str],
          workloads: Names, scale: Scale) -> Dict:
    """Average and maximum DRAM energy reduction of ChargeCache.

    Every run uses the fixed-work methodology (``idle_finished=True``,
    ``SimulationConfig.idle_finished_cores``): a core that reaches its
    instruction limit stops issuing, and the run ends when the slowest
    core does.  The energy window therefore includes the cycles in
    which finished cores sit idle.  The comparison is made on **energy
    per retired instruction** (``work_instructions``), so the two runs
    are compared at equal work.
    """
    rows = []
    for mode in modes:
        reductions = []
        for name in _names_for(mode, workloads, modes):
            base = points[_spec(mode, name, "none", scale,
                                idle_finished=True)]
            cc = points[_spec(mode, name, "chargecache", scale,
                              idle_finished=True)]
            reduction = _energy_reduction(base, cc)
            if reduction is not None:
                reductions.append(reduction)
        rows.append({
            "mode": mode,
            "average_reduction": _mean(reductions),
            "max_reduction": max(reductions) if reductions else 0.0,
            "n": len(reductions),
        })
    return {"id": "fig8", "rows": rows,
            "paper": {"single": {"avg": 0.018, "max": 0.069},
                      "eight": {"avg": 0.079, "max": 0.141}}}


# ----------------------------------------------------------------------
# Figures 9/10: capacity sweeps
# ----------------------------------------------------------------------

def _fig9_specs(modes: Sequence[str], workloads: Names, scale: Scale,
                capacities: Sequence[int] = FIG9_CAPACITIES) -> List[RunSpec]:
    return _grid(modes, workloads, scale,
                 [_cc(entries=cap) for cap in capacities]
                 + [_cc(unbounded=True)])


def _fig9(points: Points, modes: Sequence[str], workloads: Names, scale: Scale,
          capacities: Sequence[int]) -> Dict:
    """HCRAC hit rate vs capacity, plus the unlimited-size bound."""
    rows = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        for cap in capacities:
            rows.append({"mode": mode, "entries": cap,
                         "hit_rate": _hit_rate(points, mode, names,
                                               _cc(entries=cap), scale)})
        rows.append({"mode": mode, "entries": "unlimited",
                     "hit_rate": _hit_rate(points, mode, names,
                                           _cc(unbounded=True), scale)})
    return {"id": "fig9", "capacities": list(capacities), "rows": rows}


def run_fig9(modes: Sequence[str] = BOTH_MODES, workloads: Names = None,
             scale: Optional[Scale] = None) -> Dict:
    """Figure 9 (a named entry point the benchmark tracer patches)."""
    return run("fig9", workloads, scale, modes=tuple(modes))


def _hit_rate(points: Points, mode: str, names: Sequence[str],
              mechanism: str, scale: Scale) -> float:
    """Mean HCRAC hit rate of ``mechanism`` over ``names``."""
    return _mean(points[_spec(mode, name, mechanism, scale)]
                 .mechanism_hit_rate for name in names)


def _speedups(points: Points, mode: str, names: Sequence[str],
              mechanism: str, scale: Scale) -> List[float]:
    """Per-name speedup of ``mechanism`` over the baseline (names
    whose baseline performance is zero are left out)."""
    speedups = []
    for name in names:
        base = _performance(points, mode, name, "none", scale)
        if base:
            speedups.append(_performance(points, mode, name, mechanism,
                                         scale) / base - 1.0)
    return speedups


def _fig10_specs(modes: Sequence[str], workloads: Names, scale: Scale,
                 capacities: Sequence[int]) -> List[RunSpec]:
    return _grid(modes, workloads, scale,
                 ["none"] + [_cc(entries=cap) for cap in capacities],
                 weighted=True)


def _fig10(points: Points, modes: Sequence[str], workloads: Names,
           scale: Scale, capacities: Sequence[int]) -> Dict:
    """Speedup vs HCRAC capacity."""
    rows = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        for cap in capacities:
            speedups = _speedups(points, mode, names, _cc(entries=cap),
                                 scale)
            rows.append({"mode": mode, "entries": cap,
                         "speedup": _mean(speedups)})
    return {"id": "fig10", "capacities": list(capacities), "rows": rows}


# ----------------------------------------------------------------------
# Figure 11: caching-duration sweep
# ----------------------------------------------------------------------

def _fig11_specs(modes: Sequence[str], workloads: Names, scale: Scale,
                 durations_ms: Sequence[float]) -> List[RunSpec]:
    return _grid(modes, workloads, scale,
                 ["none"] + [_cc(duration_ms=d) for d in durations_ms],
                 weighted=True)


def _fig11(points: Points, modes: Sequence[str], workloads: Names,
           scale: Scale, durations_ms: Sequence[float]) -> Dict:
    """Speedup and hit rate vs caching duration.

    Longer durations raise the chance an entry survives until reuse but
    weaken the timing reductions (Table 2 derating) - the paper finds
    1 ms the sweet spot.
    """
    from repro.circuit.latency_tables import reductions_for_duration_ms
    rows = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        for duration in durations_ms:
            mechanism = _cc(duration_ms=duration)
            rows.append({
                "mode": mode,
                "duration_ms": duration,
                "speedup": _mean(_speedups(points, mode, names,
                                           mechanism, scale)),
                "hit_rate": _hit_rate(points, mode, names, mechanism,
                                      scale),
                "reductions": reductions_for_duration_ms(duration),
            })
    return {"id": "fig11", "durations_ms": list(durations_ms), "rows": rows}


# ----------------------------------------------------------------------
# Section 6.3: area & power overhead
# ----------------------------------------------------------------------

def _sec63_specs(workloads: Names, scale: Scale, mix: str) -> List[RunSpec]:
    del workloads  # the overhead is measured on one fixed mix
    return [mix_spec(mix, "chargecache", scale)]


def _sec63(points: Points, workloads: Names, scale: Scale, mix: str) -> Dict:
    """ChargeCache hardware overhead (paper Section 6.3).

    Storage uses the paper's equations (1)-(2); the access rate feeding
    dynamic power is measured from an eight-core ChargeCache run, in
    that run's own bus clock.  Two overhead sets are reported: the
    paper's fixed 8-core/2-channel/128-entry design point (top-level
    keys, comparable against the published numbers) and the overhead
    of the *actual* run config via :func:`overhead_for_config`
    (``config_*`` keys) — on the default eight-core platform the two
    coincide, but a scaled or re-parameterized run no longer silently
    mixes paper-config storage with measured access rates.
    """
    from repro.energy.drampower import access_rate_for_run
    from repro.energy.mcpat import hcrac_overhead, overhead_for_config
    del workloads
    overhead = hcrac_overhead()  # paper's 8-core, 2-channel, 128-entry
    result = points[mix_spec(mix, "chargecache", scale)]
    rate = access_rate_for_run(result)  # run's own standard's clock
    power = overhead.average_power_w(rate)
    run_overhead = overhead_for_config(result.config)
    run_power = run_overhead.average_power_w(rate)
    return {
        "id": "sec6.3",
        "storage_bytes": overhead.storage_bytes,
        "area_mm2": overhead.area_mm2,
        "area_fraction_of_llc": overhead.area_fraction_of_llc(),
        "average_power_mw": power * 1e3,
        "power_fraction_of_llc": overhead.power_fraction_of_llc(rate),
        "access_rate_per_s": rate,
        "config_storage_bytes": run_overhead.storage_bytes,
        "config_area_mm2": run_overhead.area_mm2,
        "config_average_power_mw": run_power * 1e3,
        "config_power_fraction_of_llc":
            run_overhead.power_fraction_of_llc(rate),
        "paper": {"storage_bytes": 5376, "area_mm2": 0.022,
                  "area_fraction_of_llc": 0.0024,
                  "average_power_mw": 0.149,
                  "power_fraction_of_llc": 0.0023},
    }


# ----------------------------------------------------------------------
# Calibration: synthetic-workload fingerprints vs the reference table,
# plus the bundled golden traces replayed through the full simulator
# ----------------------------------------------------------------------

def bundled_fixture_traces() -> List[str]:
    """Paths of the golden ``tests/fixtures/traces/*.trace`` fixtures.

    Resolved relative to this checkout first (``src/repro/harness/``
    -> repo root), then the working directory; an installed package
    without the test tree gets ``[]`` and ``calibrate`` simply skips
    the trace-replay rows.
    """
    import glob
    import os
    here = os.path.abspath(__file__)
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(here))))  # harness -> repro -> src -> root
    for base in (repo_root, os.getcwd()):
        pattern = os.path.join(base, "tests", "fixtures", "traces",
                               "*.trace")
        found = sorted(glob.glob(pattern))
        if found:
            return found
    return []


def _calibrate_specs(workloads: Names, scale: Scale,
                     traces: Optional[Sequence[str]]) -> List[RunSpec]:
    """Baseline + ChargeCache replay of every calibration trace
    (``traces``, None = the bundled fixtures).

    The synthetic-workload half of ``calibrate`` is a pure trace-level
    analysis (no simulation), so only the trace replays appear in the
    sweep.
    """
    del workloads
    return [trace_spec(path, mech, scale)
            for path in _trace_paths(traces)
            for mech in ("none", "chargecache")]


def _trace_paths(traces: Optional[Sequence[str]]) -> List[str]:
    """The trace files ``calibrate`` replays: ``traces`` (the CLI's
    ``--traces``), else the bundled fixtures."""
    return list(traces) if traces is not None else bundled_fixture_traces()


#: Uniform calibrate-row key set (CSV columns come from the first row).
_CALIBRATE_COLUMNS = (
    "workload", "kind", "rltl_1ms", "ref_rltl_1ms", "d_rltl",
    "rmpkc", "ref_rmpkc", "rmpkc_ratio",
    "row_hit", "ref_row_hit", "d_row_hit",
    "sim_row_hit", "sim_rmpkc", "cc_speedup", "status",
)


def _calibrate_row(**values) -> Dict:
    row = {key: "" for key in _CALIBRATE_COLUMNS}
    row.update(values)
    return row


def _calibrate(points: Points, workloads: Names, scale: Scale,
               traces: Optional[Sequence[str]]) -> Dict:
    """Workload fingerprint calibration (DESIGN.md section 2).

    Two halves, one table:

    * **synthetic rows** — every substitution-table workload is
      fingerprinted by the trace-level pass
      (:func:`repro.workloads.ingest.fingerprint_workload`) at the
      reference provenance point (20k records, seed 1, fingerprint
      defaults — deliberately *independent* of ``scale``, so the
      deltas against :data:`~repro.workloads.ingest.reference
      .REFERENCE_FINGERPRINTS` mean the same thing at every ``--scale``)
      and reported as signed deltas with an ok/drift status.
    * **trace rows** — each calibration trace (bundled golden fixtures
      by default, the ``traces`` parameter to override) is
      fingerprinted the same way *and* replayed through the full
      simulator (baseline + ChargeCache, at ``scale``), so the
      trace-level model and the simulated system sit side by side.
    """
    from repro.workloads.ingest import (
        DEFAULT_FINGERPRINT_RECORDS,
        fingerprint_file,
        fingerprint_workload,
    )
    from repro.workloads.ingest.reference import (
        PAPER_AVG_RLTL_1MS,
        REFERENCE_FINGERPRINTS,
        REFERENCE_INTERVAL_MS,
        fingerprint_delta,
    )
    names = list(workloads) if workloads is not None \
        else list(WORKLOAD_NAMES)
    traces = _trace_paths(traces)
    rows = []
    for name in names:
        fp = fingerprint_workload(name)
        ref = REFERENCE_FINGERPRINTS.get(name)
        if ref is None:
            rows.append(_calibrate_row(
                workload=name, kind="synthetic",
                rltl_1ms=fp.rltl(REFERENCE_INTERVAL_MS),
                rmpkc=fp.rmpkc, row_hit=fp.row_hit_rate,
                status="no-ref"))
        else:
            rows.append(_calibrate_row(
                workload=name, kind="synthetic",
                **fingerprint_delta(fp, ref)))
    synthetic = list(rows)
    # Two paths to the same bytes are one spec: one row, first path.
    firsts: Dict[RunSpec, str] = {}
    for path in traces:
        firsts.setdefault(trace_spec(path, "none", scale), path)
    for base_spec, path in firsts.items():
        fp = fingerprint_file(path)
        base = points[base_spec]
        cc = points[trace_spec(path, "chargecache", scale)]
        rows.append(_calibrate_row(
            workload=fp.name, kind="trace",
            rltl_1ms=fp.rltl(REFERENCE_INTERVAL_MS),
            rmpkc=fp.rmpkc, row_hit=fp.row_hit_rate,
            sim_row_hit=base.row_hit_rate,
            sim_rmpkc=base.rmpkc(),
            cc_speedup=(cc.total_ipc / base.total_ipc - 1.0
                        if base.total_ipc else 0.0),
            status="ingested"))
    return {
        "id": "calibrate",
        "interval_ms": REFERENCE_INTERVAL_MS,
        "fingerprint_records": DEFAULT_FINGERPRINT_RECORDS,
        "avg_rltl_1ms": _mean(r["rltl_1ms"] for r in synthetic),
        "paper_avg_rltl_1ms": PAPER_AVG_RLTL_1MS,
        "drift": [r["workload"] for r in synthetic
                  if r["status"] == "drift"],
        "traces": list(firsts.values()),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# Table 1: configuration echo
# ----------------------------------------------------------------------

def _table1() -> Dict:
    """The simulated system configuration (validation that our defaults
    match the paper's Table 1)."""
    from repro.controller.scheduler import FRFCFSScheduler
    from repro.core.chargecache import chargecache_params
    single = runner.build_config("single", "none")
    eight = runner.build_config("eight", "none")
    t = DDR3_1600
    cc = chargecache_params("chargecache")
    trcd_reduction, tras_reduction = derated_reduction_cycles(
        t, cc.caching_duration_ms)
    return {
        "id": "table1",
        "processor": {
            "cores": [single.processor.num_cores,
                      eight.processor.num_cores],
            "freq_ghz": DEFAULT_CPU_FREQ_GHZ,
            "issue_width": ISSUE_WIDTH,
            "mshrs_per_core": MSHRS_PER_CORE,
            "window": WINDOW_SIZE,
        },
        "llc": {
            "size_bytes": single.cache.size_bytes,
            "associativity": single.cache.associativity,
            "line_bytes": LINE_BYTES,
        },
        "controller": {
            "queue_entries": single.controller.read_queue_size,
            "scheduler": FRFCFSScheduler.name,
            "row_policy": [single.controller.row_policy,
                           eight.controller.row_policy],
        },
        "dram": {
            "type": t.name,
            "bus_mhz": t.freq_mhz,
            "channels": [single.dram.channels, eight.dram.channels],
            "ranks": RANKS_PER_CHANNEL,
            "banks": BANKS_PER_RANK,
            "rows": single.dram.rows_per_bank,
            "row_buffer_bytes": ROW_BUFFER_BYTES,
            "trcd_cycles": t.tRCD,
            "tras_cycles": t.tRAS,
        },
        "chargecache": {
            "entries": cc.entries,
            "associativity": cc.associativity,
            "duration_ms": cc.caching_duration_ms,
            "trcd_reduction": trcd_reduction,
            "tras_reduction": tras_reduction,
        },
    }


# ----------------------------------------------------------------------
# The figure table
# ----------------------------------------------------------------------

#: Experiment id -> :class:`Figure`.  The CLI's experiment choices,
#: ``all`` and the shared pool read this table and nothing else.
FIGURES: Dict[str, Figure] = {
    "fig3a": Figure(_fig3, _fig3_specs, {"mode": "single"}, ("single",)),
    "fig3b": Figure(_fig3, _fig3_specs, {"mode": "eight"}, ("eight",)),
    "fig4a": Figure(_fig4, _fig4_specs, {
        "mode": "single", "intervals_ms": FIG4_INTERVALS}, ("single",)),
    "fig4b": Figure(_fig4, _fig4_specs, {
        "mode": "eight", "intervals_ms": FIG4_INTERVALS}, ("eight",)),
    "fig6": Figure(_fig6, None, {"partial_age_ms": 64.0, "samples": 40}),
    "fig7a": Figure(_fig7, _fig7_specs, {
        "mode": "single", "mechanisms": FIG7_MECHANISMS}, ("single",)),
    "fig7b": Figure(_fig7, _fig7_specs, {
        "mode": "eight", "mechanisms": FIG7_MECHANISMS}, ("eight",)),
    "fig8": Figure(_fig8, _fig8_specs, {"modes": BOTH_MODES}, BOTH_MODES),
    "fig9": Figure(_fig9, _fig9_specs, {
        "modes": BOTH_MODES, "capacities": FIG9_CAPACITIES}, BOTH_MODES),
    "fig10": Figure(_fig10, _fig10_specs, {
        "modes": BOTH_MODES, "capacities": FIG9_CAPACITIES}, BOTH_MODES),
    "fig11": Figure(_fig11, _fig11_specs, {
        "modes": BOTH_MODES, "durations_ms": FIG11_DURATIONS}, BOTH_MODES),
    "sec63": Figure(_sec63, _sec63_specs, {"mix": "w1"}),
    "table1": Figure(_table1),
    "table2": Figure(_table2),
    "calibrate": Figure(_calibrate, _calibrate_specs, {"traces": None},
                        ("single",)),
}


def workloads_for(name: str, workloads: Names) -> Optional[List[str]]:
    """The part of a ``--workloads`` filter entry ``name`` runs on.

    None when there is no filter or the entry takes none (no modes);
    otherwise the names its modes know, in the filter's order — ``[]``
    when it knows none of them (it has nothing to run).
    """
    modes = FIGURES[name].modes
    if workloads is None or not modes:
        return None
    return [w for w in workloads
            if any(w in _mode_names(mode) for mode in modes)]


def override_params(name: str, **overrides) -> Dict:
    """What command-line overrides change on entry ``name``: each
    override given (not None) that the entry declares among its
    params, as a tuple — ``mechanisms`` on the entries that compare
    mechanisms, ``traces`` on ``calibrate``."""
    params = FIGURES[name].params
    return {key: tuple(value) for key, value in overrides.items()
            if value is not None and key in params}


def declared_specs(names: Sequence[str], workloads: Names = None,
                   scale: Optional[Scale] = None,
                   **overrides) -> List[RunSpec]:
    """The deduplicated union of the named entries' sweeps, each over
    its :func:`workloads_for` part of ``workloads`` and with
    ``overrides`` swapped in where :func:`override_params` says."""
    scale = scale or current_scale()
    specs: List[RunSpec] = []
    for name in names:
        figure = FIGURES[name]
        mine = workloads_for(name, workloads)
        if figure.sweep is None or mine == []:
            continue
        params = {**figure.params, **override_params(name, **overrides)}
        specs += figure.sweep(workloads=mine, scale=scale, **params)
    return dedupe_specs(specs)


def prefetch_experiments(names: Sequence[str], workloads: Names = None,
                         scale: Optional[Scale] = None,
                         **overrides) -> pool.Sweep:
    """Execute the named entries' :func:`declared_specs` through ONE
    shared pool.

    Spec identity is cache-key identity, so each distinct key is
    computed at most once, and workers drain the global frontier
    instead of idling at per-experiment sweep tails.  The entries run
    afterwards find every point in the runner memo and fork nothing.
    """
    return pool.execute_sweep(
        declared_specs(names, workloads, scale, **overrides))
