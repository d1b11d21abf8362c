"""One driver per paper table/figure (see DESIGN.md's experiment index).

Every ``run_*`` function returns a plain dict (JSON-friendly) with a
``rows`` list shaped like the paper's artifact, plus enough metadata to
render or assert on.  Workload subsets default to the full paper sets;
benchmarks pass smaller subsets where a sweep would otherwise dominate
wall-clock time (recorded in EXPERIMENTS.md).

Execution model: each simulation-backed experiment first **declares**
its complete sweep as a flat list of :class:`~repro.harness.spec.RunSpec`
points (including the alone-runs that weighted speedup needs) and hands
it to :func:`repro.harness.pool.execute_sweep`, which fans the points
out over worker processes and the persistent run cache.  The
aggregation code below then re-requests runs through the classic
``run_workload``/``run_mix`` entry points, which hit the freshly
back-filled in-process memo — so shaping logic stays sequential and
readable while all simulation happens in parallel.  Experiments with a
sweep attach a ``"cache"`` annotation to their result dict recording,
per point, whether it was served from memory, disk, or computed.

Declaration is separate from aggregation so sweeps compose: every
``_*_specs`` helper is registered in :data:`SWEEP_DECLARATIONS`, and
:func:`prefetch_experiments` concatenates any set of experiments'
sweeps, dedupes them, and executes the union through **one** shared
process pool.  The CLI's ``all`` command uses this so the tail of one
figure's sweep never idles workers the next figure could use; each
experiment's own ``_prefetch`` then finds everything in the memo and
forks nothing (DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.circuit.latency_tables import (
    BASELINE_TIMINGS_NS,
    DURATION_TABLE_NS,
    reductions_for_duration_ms,
)
from repro.circuit.spice import bitline_transient, derive_timing_table
from repro.config import eight_core_config, single_core_config
from repro.dram.timing import DDR3_1600
from repro.energy.drampower import access_rate_for_run, energy_for_run
from repro.energy.mcpat import hcrac_overhead, overhead_for_config
from repro.dram.standards import preset, profile, reduction_cycles_for
from repro.harness import aggregate, pool, runner, scenarios
from repro.harness.runner import (
    Scale,
    alone_ipcs_for_mix,
    alone_specs_for_mix,
    current_scale,
    mix_spec,
    run_mix,
    run_scenario,
    run_trace,
    run_workload,
    scenario_spec,
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

#: Default workloads for the scenario-matrix experiments.  Two mixes
#: keep the full matrix (10 scaling + 6 extra standards platforms,
#: baseline + ChargeCache each) affordable at default scale; pass
#: ``workloads`` to widen or narrow.
SCENARIO_WORKLOADS = ("w1", "w2")

def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the pool width used by every subsequent experiment sweep."""
    runner.set_execution(replace(runner.execution, jobs=jobs))


def set_progress(progress) -> None:
    """Install a progress callback for sweep execution (None = quiet)."""
    runner.set_execution(replace(runner.execution, progress=progress))


def _prefetch(specs: Sequence[RunSpec]) -> pool.Sweep:
    """Fan a declared sweep out; results land in the runner memo."""
    return pool.execute_sweep(specs)


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _cc(entries: Optional[int] = None,
        duration_ms: Optional[float] = None,
        unbounded: bool = False) -> str:
    """A parameterized ChargeCache mechanism spec string.

    The capacity/duration sweeps are spec-string generation, not
    config surgery: ``_cc(entries=256)`` -> ``"chargecache(entries=256)"``.
    Normalization folds these inline parameters back into the
    RunSpec's canonical shorthand fields, so the generated specs land
    on exactly the keys the pre-registry ``cc_entries``/
    ``cc_duration_ms`` keyword sweeps used.
    """
    params = []
    if entries is not None:
        params.append(f"entries={entries}")
    if duration_ms is not None:
        params.append(f"duration_ms={duration_ms!r}")
    if unbounded:
        params.append("unbounded=true")
    return f"chargecache({','.join(params)})" if params else "chargecache"


def _cc_axes(entries: Optional[int] = None,
             duration_ms: Optional[float] = None,
             unbounded: bool = False) -> Dict:
    """Canonical frame-filter axes for a parameterized ChargeCache run.

    Registry normalization folds default-valued parameters away
    (``entries=128`` hashes like plain ``chargecache``), so frame
    filters must match the *canonical* axis values, not the sweep's
    literal parameters.
    """
    from repro.core.registry import extract_run_params
    mechanism, entries, duration_ms, unbounded = extract_run_params(
        _cc(entries=entries, duration_ms=duration_ms,
            unbounded=unbounded))
    return {"mechanism": mechanism, "cc_entries": entries,
            "cc_duration_ms": duration_ms, "cc_unbounded": unbounded}


# ----------------------------------------------------------------------
# Figure 3: 8ms-RLTL vs accessed-within-8ms-of-refresh
# ----------------------------------------------------------------------

def _fig3_specs(mode: str, workloads: Optional[Sequence[str]],
                scale: Scale) -> List[RunSpec]:
    return [_spec(mode, name, "none", scale, enable_rltl=True)
            for name in _names_for(mode, workloads)]


def run_fig3(mode: str = "single",
             workloads: Optional[Sequence[str]] = None,
             scale: Optional[Scale] = None) -> Dict:
    """Fraction of activations within 8 ms of own precharge vs refresh."""
    scale = scale or current_scale()
    names = _names_for(mode, workloads)
    sweep = _prefetch(_fig3_specs(mode, workloads, scale))
    rows = []
    for name in names:
        result = _run_for(mode, name, "none", scale, enable_rltl=True)
        probe = result.rltl
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
            "mode": mode, "time_scale": scale.time_scale, "rows": rows,
            "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Figure 4: RLTL vs interval, open vs closed row policy
# ----------------------------------------------------------------------

def _fig4_specs(mode: str, workloads: Optional[Sequence[str]],
                scale: Scale) -> List[RunSpec]:
    return [_spec(mode, name, "none", scale, enable_rltl=True,
                  row_policy=policy)
            for name in _names_for(mode, workloads)
            for policy in ("open", "closed")]


def run_fig4(mode: str = "single",
             workloads: Optional[Sequence[str]] = None,
             intervals_ms: Sequence[float] = (0.125, 0.25, 0.5, 1.0, 32.0),
             scale: Optional[Scale] = None) -> Dict:
    """t-RLTL for several intervals under both row policies."""
    scale = scale or current_scale()
    names = _names_for(mode, workloads)
    sweep = _prefetch(_fig4_specs(mode, workloads, scale))
    rows = []
    for name in names:
        row = {"workload": name}
        for policy in ("open", "closed"):
            result = _run_for(mode, name, "none", scale, enable_rltl=True,
                              row_policy=policy)
            for interval in intervals_ms:
                row[f"{policy}_{interval}ms"] = result.rltl.rltl(interval)
        rows.append(row)
    avg = {"workload": "AVG"}
    for key in rows[0]:
        if key != "workload":
            avg[key] = _mean(r[key] for r in rows)
    rows.append(avg)
    return {"id": f"fig4{'a' if mode == 'single' else 'b'}",
            "mode": mode, "intervals_ms": list(intervals_ms),
            "time_scale": scale.time_scale, "rows": rows,
            "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Figure 6: bitline voltage transients
# ----------------------------------------------------------------------

def run_fig6(partial_age_ms: float = 64.0,
             samples: int = 40) -> Dict:
    """Bitline voltage vs time for fully vs partially charged cells."""
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

def run_table2() -> Dict:
    """Published vs model-derived duration->timing table."""
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

def _fig7_specs(mode: str, workloads: Optional[Sequence[str]],
                scale: Scale,
                mechanisms: Optional[Sequence[str]] = None
                ) -> List[RunSpec]:
    mechanisms = FIG7_MECHANISMS if mechanisms is None else mechanisms
    names = _names_for(mode, workloads)
    specs = [_spec(mode, name, mech, scale)
             for name in names for mech in ("none",) + tuple(mechanisms)]
    return specs + _ws_specs(mode, names, scale)


def run_fig7(mode: str = "single",
             workloads: Optional[Sequence[str]] = None,
             mechanisms: Optional[Sequence[str]] = None,
             scale: Optional[Scale] = None) -> Dict:
    """Speedup of each mechanism over baseline, plus RMPKC.

    ``mechanisms`` accepts any registry spec strings (plain names,
    compositions, inline parameters); ``None`` means the paper's
    Figure 7 set.
    """
    mechanisms = FIG7_MECHANISMS if mechanisms is None else tuple(mechanisms)
    scale = scale or current_scale()
    names = _names_for(mode, workloads)
    sweep = _prefetch(_fig7_specs(mode, workloads, scale, mechanisms))
    rows = []
    for name in names:
        row = {"workload": name}
        base = _performance(mode, name, "none", scale)
        row["rmpkc"] = _run_for(mode, name, "none", scale).rmpkc()
        for mech in mechanisms:
            perf = _performance(mode, name, mech, scale)
            row[mech] = perf / base - 1.0 if base else 0.0
        if mode == "single":
            row["base_ipc"] = base
        else:
            row["base_ws"] = base
        rows.append(row)
    avg = {"workload": "AVG",
           "rmpkc": _mean(r["rmpkc"] for r in rows)}
    for mech in mechanisms:
        avg[mech] = _mean(r[mech] for r in rows)
    rows.sort(key=lambda r: r["rmpkc"])
    rows.append(avg)
    return {"id": f"fig7{'a' if mode == 'single' else 'b'}",
            "mode": mode, "mechanisms": list(mechanisms), "rows": rows,
            "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Figure 8: DRAM energy reduction
# ----------------------------------------------------------------------

def _fig8_specs(modes: Sequence[str], workloads: Optional[Sequence[str]],
                scale: Scale) -> List[RunSpec]:
    return [_spec(mode, name, mech, scale, idle_finished=True)
            for mode in modes for name in _names_for(mode, workloads, modes)
            for mech in ("none", "chargecache")]


def _energy_reduction(base, cc, e_base=None) -> Optional[float]:
    """Fractional energy-per-instruction saving of ``cc`` over ``base``.

    Both runs are billed with the clock and IDD set of the standard
    their own config names (resolved inside :func:`energy_for_run`),
    and the HCRAC power charged against ChargeCache comes from
    :func:`overhead_for_config` of the *actual* run config — not the
    paper's fixed 8-core/2-channel design point.  Returns ``None``
    when the comparison is undefined (no energy or no retired work).
    ``e_base`` lets a caller that already holds the baseline breakdown
    skip recomputing it.
    """
    overhead = overhead_for_config(cc.config)
    rate = access_rate_for_run(cc)
    if e_base is None:
        e_base = energy_for_run(base)
    e_cc = energy_for_run(cc,
                          mechanism_power_w=overhead.average_power_w(rate))
    if e_base.total_pj <= 0 or base.work_instructions <= 0 \
            or cc.work_instructions <= 0:
        return None
    per_inst_base = e_base.total_pj / base.work_instructions
    per_inst_cc = e_cc.total_pj / cc.work_instructions
    return 1.0 - per_inst_cc / per_inst_base


def run_fig8(modes: Sequence[str] = ("single", "eight"),
             workloads: Optional[Sequence[str]] = None,
             scale: Optional[Scale] = None) -> Dict:
    """Average and maximum DRAM energy reduction of ChargeCache.

    Multi-core runs use trace-loop methodology (cores that reach their
    instruction limit keep executing), so the ChargeCache run performs
    *more* work in its window than the baseline run.  The comparison is
    therefore made on **energy per retired instruction**, which is
    iso-work; for single-core runs this reduces to the plain energy
    ratio (both runs retire exactly the instruction limit).

    Timing and IDD parameters resolve from each run's own config (its
    ``dram.standard``), so non-DDR3 configs are charged with their own
    clock and currents; :func:`run_energy` sweeps the whole standards
    family this way.
    """
    scale = scale or current_scale()
    sweep = _prefetch(_fig8_specs(modes, workloads, scale))
    rows = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        reductions = []
        for name in names:
            base = _run_for(mode, name, "none", scale,
                            idle_finished=True)
            cc = _run_for(mode, name, "chargecache", scale,
                          idle_finished=True)
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
                      "eight": {"avg": 0.079, "max": 0.141}},
            "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Figures 9/10: capacity sweeps
# ----------------------------------------------------------------------

def _fig9_specs(modes: Sequence[str], workloads: Optional[Sequence[str]],
                scale: Scale,
                capacities: Sequence[int] = FIG9_CAPACITIES
                ) -> List[RunSpec]:
    specs = []
    for mode in modes:
        for name in _names_for(mode, workloads, modes):
            specs += [_spec(mode, name, _cc(entries=cap), scale)
                      for cap in capacities]
            specs.append(_spec(mode, name, _cc(unbounded=True), scale))
    return specs


def run_fig9(modes: Sequence[str] = ("single", "eight"),
             capacities: Sequence[int] = FIG9_CAPACITIES,
             workloads: Optional[Sequence[str]] = None,
             scale: Optional[Scale] = None) -> Dict:
    """HCRAC hit rate vs capacity, plus the unlimited-size bound."""
    scale = scale or current_scale()
    sweep = _prefetch(_fig9_specs(modes, workloads, scale, capacities))
    frame = aggregate.sweep_frame(sweep)
    rows = []
    for mode in modes:
        for cap in capacities:
            rows.append({"mode": mode, "entries": cap,
                         "hit_rate": frame.where(
                             kind=mode, **_cc_axes(entries=cap))
                         .mean("mechanism_hit_rate")})
        rows.append({"mode": mode, "entries": "unlimited",
                     "hit_rate": frame.where(
                         kind=mode, **_cc_axes(unbounded=True))
                     .mean("mechanism_hit_rate")})
    return {"id": "fig9", "capacities": list(capacities), "rows": rows,
            "cache": sweep.annotation()}


def _fig10_specs(modes: Sequence[str], workloads: Optional[Sequence[str]],
                 scale: Scale,
                 capacities: Sequence[int] = FIG9_CAPACITIES
                 ) -> List[RunSpec]:
    specs = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        for name in names:
            specs.append(_spec(mode, name, "none", scale))
            specs += [_spec(mode, name, _cc(entries=cap), scale)
                      for cap in capacities]
        specs += _ws_specs(mode, names, scale)
    return specs


def run_fig10(modes: Sequence[str] = ("single", "eight"),
              capacities: Sequence[int] = FIG9_CAPACITIES,
              workloads: Optional[Sequence[str]] = None,
              scale: Optional[Scale] = None) -> Dict:
    """Speedup vs HCRAC capacity."""
    scale = scale or current_scale()
    sweep = _prefetch(_fig10_specs(modes, workloads, scale, capacities))
    frame = aggregate.sweep_frame(sweep, performance=True)
    rows = []
    for mode in modes:
        base = frame.where(kind=mode, mechanism="none") \
            .pivot("name", "performance")
        for cap in capacities:
            variant = frame.where(kind=mode, **_cc_axes(entries=cap))
            speedups = [row["performance"] / base[row["name"]] - 1.0
                        for row in variant if base.get(row["name"])]
            rows.append({"mode": mode, "entries": cap,
                         "speedup": _mean(speedups)})
    return {"id": "fig10", "capacities": list(capacities), "rows": rows,
            "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Figure 11: caching-duration sweep
# ----------------------------------------------------------------------

def _fig11_specs(modes: Sequence[str], workloads: Optional[Sequence[str]],
                 scale: Scale,
                 durations_ms: Sequence[float] = FIG11_DURATIONS
                 ) -> List[RunSpec]:
    specs = []
    for mode in modes:
        names = _names_for(mode, workloads, modes)
        for name in names:
            specs.append(_spec(mode, name, "none", scale))
            specs += [_spec(mode, name, _cc(duration_ms=duration), scale)
                      for duration in durations_ms]
        specs += _ws_specs(mode, names, scale)
    return specs


def run_fig11(modes: Sequence[str] = ("single", "eight"),
              durations_ms: Sequence[float] = FIG11_DURATIONS,
              workloads: Optional[Sequence[str]] = None,
              scale: Optional[Scale] = None) -> Dict:
    """Speedup and hit rate vs caching duration.

    Longer durations raise the chance an entry survives until reuse but
    weaken the timing reductions (Table 2 derating) - the paper finds
    1 ms the sweet spot.
    """
    scale = scale or current_scale()
    sweep = _prefetch(_fig11_specs(modes, workloads, scale, durations_ms))
    frame = aggregate.sweep_frame(sweep, performance=True)
    rows = []
    for mode in modes:
        base = frame.where(kind=mode, mechanism="none") \
            .pivot("name", "performance")
        for duration in durations_ms:
            variant = frame.where(kind=mode,
                                  **_cc_axes(duration_ms=duration))
            speedups = [row["performance"] / base[row["name"]] - 1.0
                        for row in variant if base.get(row["name"])]
            rows.append({
                "mode": mode,
                "duration_ms": duration,
                "speedup": _mean(speedups),
                "hit_rate": variant.mean("mechanism_hit_rate"),
                "reductions": reductions_for_duration_ms(duration),
            })
    return {"id": "fig11", "durations_ms": list(durations_ms), "rows": rows,
            "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Section 6.3: area & power overhead
# ----------------------------------------------------------------------

def _sec63_specs(scale: Scale, mix: str = "w1") -> List[RunSpec]:
    return [mix_spec(mix, "chargecache", scale)]


def run_sec63(scale: Optional[Scale] = None,
              mix: str = "w1") -> Dict:
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
    scale = scale or current_scale()
    overhead = hcrac_overhead()  # paper's 8-core, 2-channel, 128-entry
    sweep = _prefetch(_sec63_specs(scale, mix))
    result = run_mix(mix, "chargecache", scale)
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
        "cache": sweep.annotation(),
    }


# ----------------------------------------------------------------------
# Scenario matrix: scaling (cores x ranks) and standards (timing
# grades) sensitivity figures, modeled on Figures 10/11-style plots
# ----------------------------------------------------------------------

def _scenario_names_for(workloads: Optional[Sequence[str]]) -> List[str]:
    return list(workloads) if workloads is not None \
        else list(SCENARIO_WORKLOADS)


def _scenario_specs(scenario_names: Sequence[str],
                    workloads: Optional[Sequence[str]],
                    scale: Scale) -> List[RunSpec]:
    names = _scenario_names_for(workloads)
    return [scenario_spec(scen, name, mech, scale)
            for scen in scenario_names
            for name in names
            for mech in ("none", "chargecache")]


def _scaling_specs(workloads: Optional[Sequence[str]],
                   scale: Scale) -> List[RunSpec]:
    return _scenario_specs(scenarios.SCALING_SCENARIOS, workloads, scale)


def _standards_specs(workloads: Optional[Sequence[str]],
                     scale: Scale) -> List[RunSpec]:
    return _scenario_specs(scenarios.STANDARD_SCENARIOS, workloads, scale)


def _scenario_row(scen_name: str, names: Sequence[str],
                  scale: Scale) -> Dict:
    """Baseline-vs-ChargeCache aggregate for one platform."""
    scen = scenarios.scenario(scen_name)
    speedups, hits, rmpkcs, row_hits, lats = [], [], [], [], []
    for name in names:
        base = run_scenario(scen_name, name, "none", scale)
        cc = run_scenario(scen_name, name, "chargecache", scale)
        if base.total_ipc:
            speedups.append(cc.total_ipc / base.total_ipc - 1.0)
        hits.append(cc.mechanism_hit_rate)
        rmpkcs.append(base.rmpkc())
        row_hits.append(base.row_hit_rate)
        lats.append(base.average_read_latency_cycles)
    row = scen.axes()
    row.update({
        "rmpkc": _mean(rmpkcs),
        "row_hit": _mean(row_hits),
        "read_latency": _mean(lats),
        "cc_hit_rate": _mean(hits),
        "cc_speedup": _mean(speedups),
    })
    return row


def run_scaling(workloads: Optional[Sequence[str]] = None,
                scale: Optional[Scale] = None) -> Dict:
    """ChargeCache sensitivity to core count and ranks per channel.

    Sweeps the scaling family of :mod:`repro.harness.scenarios`
    (1/2/4/8/16 cores x 1/2 ranks per channel on DDR3-1600) with the
    baseline and ChargeCache on each platform.  Speedup here is the
    total-IPC ratio on the same platform (not weighted speedup — the
    alone-run denominators of Figure 7b are platform-specific and
    would conflate the platform change with the mechanism's effect).
    """
    scale = scale or current_scale()
    names = _scenario_names_for(workloads)
    sweep = _prefetch(_scaling_specs(workloads, scale))
    rows = [_scenario_row(scen, names, scale)
            for scen in scenarios.SCALING_SCENARIOS]
    return {"id": "scaling", "workloads": names,
            "core_counts": list(scenarios.SCALING_CORE_COUNTS),
            "ranks": list(scenarios.SCALING_RANKS),
            "rows": rows, "cache": sweep.annotation()}


def run_standards(workloads: Optional[Sequence[str]] = None,
                  scale: Optional[Scale] = None) -> Dict:
    """ChargeCache across DDR-derived timing grades (paper Section 7.2).

    Single-core and eight-core platforms on each preset of
    :mod:`repro.dram.standards`.  Each row also records the preset's
    baseline tRCD/tRAS and the ChargeCache reductions re-derived in
    that standard's bus cycles (the physical ~5/10 ns charge headroom
    is more cycles on a faster clock).
    """
    scale = scale or current_scale()
    names = _scenario_names_for(workloads)
    sweep = _prefetch(_standards_specs(workloads, scale))
    rows = []
    for scen_name in scenarios.STANDARD_SCENARIOS:
        scen = scenarios.scenario(scen_name)
        timing = preset(scen.standard)
        trcd_red, tras_red = reduction_cycles_for(timing)
        row = _scenario_row(scen_name, names, scale)
        row.update({
            "trcd": timing.tRCD,
            "tras": timing.tRAS,
            "trcd_reduction": trcd_red,
            "tras_reduction": tras_red,
        })
        rows.append(row)
    return {"id": "standards", "workloads": names,
            "standards": sorted({scenarios.scenario(n).standard
                                 for n in scenarios.STANDARD_SCENARIOS}),
            "rows": rows, "cache": sweep.annotation()}


# ----------------------------------------------------------------------
# Energy across the standards family (fig8 methodology x Section 7.2)
# ----------------------------------------------------------------------

def _energy_specs(workloads: Optional[Sequence[str]],
                  scale: Scale) -> List[RunSpec]:
    names = _scenario_names_for(workloads)
    return [scenario_spec(scen, name, mech, scale, idle_finished=True)
            for scen in scenarios.STANDARD_SCENARIOS
            for name in names
            for mech in ("none", "chargecache")]


def run_energy(workloads: Optional[Sequence[str]] = None,
               scale: Optional[Scale] = None) -> Dict:
    """DRAM energy reduction of ChargeCache on every standards platform.

    Figure 8's methodology (fixed-work runs, energy per retired
    instruction, HCRAC power charged against the mechanism) applied to
    the whole standards family of :mod:`repro.harness.scenarios`: the
    single- and eight-core platforms on each
    :class:`~repro.dram.standards.StandardProfile`.  Every platform is
    billed with its own profile — its clock for run time and its IDD
    set for energy — and the HCRAC power comes from
    :func:`overhead_for_config` of the actual run config, so the DDR3
    rows reproduce Figure 8's energy model exactly while the other
    standards get theirs rather than DDR3's.
    """
    scale = scale or current_scale()
    names = _scenario_names_for(workloads)
    sweep = _prefetch(_energy_specs(workloads, scale))
    rows = []
    for scen_name in scenarios.STANDARD_SCENARIOS:
        scen = scenarios.scenario(scen_name)
        prof = scen.profile
        reductions, base_pj = [], []
        for name in names:
            base = run_scenario(scen_name, name, "none", scale,
                                idle_finished=True)
            cc = run_scenario(scen_name, name, "chargecache", scale,
                              idle_finished=True)
            e_base = energy_for_run(base)
            reduction = _energy_reduction(base, cc, e_base)
            if reduction is not None:
                reductions.append(reduction)
            base_pj.append(e_base.total_pj)
        row = scen.axes()
        row.update({
            "vdd": prof.power.vdd,
            "tck_ns": prof.timing.tCK_ns,
            "baseline_uj": _mean(base_pj) * 1e-6,
            "average_reduction": _mean(reductions),
            "max_reduction": max(reductions) if reductions else 0.0,
            "n": len(reductions),
        })
        rows.append(row)
    return {"id": "energy", "workloads": names,
            "standards": sorted({scenarios.scenario(n).standard
                                 for n in scenarios.STANDARD_SCENARIOS}),
            "paper": {"single": {"avg": 0.018, "max": 0.069},
                      "eight": {"avg": 0.079, "max": 0.141}},
            "rows": rows, "cache": sweep.annotation()}


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


def calibration_traces() -> List[str]:
    """The trace files the next ``calibrate`` will replay:
    ``runner.execution.calibration_traces`` (the CLI's ``--traces``),
    else the bundled fixtures.  The sweep declaration in
    :data:`SWEEP_DECLARATIONS` and :func:`run_calibrate` both read it,
    so they always agree on the trace set."""
    paths = runner.execution.calibration_traces
    return list(paths) if paths is not None else bundled_fixture_traces()


def _calibrate_specs(workloads: Optional[Sequence[str]],
                     scale: Scale) -> List[RunSpec]:
    """Baseline + ChargeCache replay of every calibration trace.

    The synthetic-workload half of ``calibrate`` is a pure trace-level
    analysis (no simulation), so only the trace replays appear in the
    sweep; ``workloads`` is accepted for declaration-signature
    uniformity.
    """
    del workloads
    return [trace_spec(path, mech, scale)
            for path in calibration_traces()
            for mech in ("none", "chargecache")]


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


def run_calibrate(workloads: Optional[Sequence[str]] = None,
                  scale: Optional[Scale] = None) -> Dict:
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
      by default, ``Execution.calibration_traces`` to override) is
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
    scale = scale or current_scale()
    names = list(workloads) if workloads is not None \
        else list(WORKLOAD_NAMES)
    traces = calibration_traces()
    sweep = _prefetch(_calibrate_specs(workloads, scale))
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
    for path in traces:
        fp = fingerprint_file(path)
        base = run_trace(path, "none", scale)
        cc = run_trace(path, "chargecache", scale)
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
        "traces": list(traces),
        "rows": rows,
        "cache": sweep.annotation(),
    }


# ----------------------------------------------------------------------
# Cross-experiment sweep declaration (the `all` command's shared pool)
# ----------------------------------------------------------------------

#: Experiment id -> callable(workloads, scale) -> flat RunSpec list.
#: Mirrors the defaults of the matching ``run_*`` call in the CLI's
#: experiment table; ids without a sweep (fig6, table1, table2) are
#: simply absent.  tests/harness/test_shared_pool.py asserts the
#: declarations stay in sync with what the experiments actually run.
SWEEP_DECLARATIONS = {
    "fig3a": lambda w, s: _fig3_specs("single", w, s),
    "fig3b": lambda w, s: _fig3_specs("eight", w, s),
    "fig4a": lambda w, s: _fig4_specs("single", w, s),
    "fig4b": lambda w, s: _fig4_specs("eight", w, s),
    "fig7a": lambda w, s, m=None: _fig7_specs("single", w, s, m),
    "fig7b": lambda w, s, m=None: _fig7_specs("eight", w, s, m),
    "fig8": lambda w, s: _fig8_specs(("single", "eight"), w, s),
    "fig9": lambda w, s: _fig9_specs(("single", "eight"), w, s),
    "fig10": lambda w, s: _fig10_specs(("single", "eight"), w, s),
    "fig11": lambda w, s: _fig11_specs(("single", "eight"), w, s),
    "sec63": lambda w, s: _sec63_specs(s),
    "calibrate": lambda w, s: _calibrate_specs(w, s),
    "scaling": lambda w, s: _scaling_specs(w, s),
    "standards": lambda w, s: _standards_specs(w, s),
    "energy": lambda w, s: _energy_specs(w, s),
}

#: Experiment ids whose declaration (and ``run_*``) accept a custom
#: mechanism-spec list.  The CLI's ``--mechanisms`` flag reaches
#: exactly these, both per-experiment and through the shared pool.
MECHANISM_AWARE = ("fig7a", "fig7b")


def declared_specs(names: Sequence[str],
                   workloads: Optional[Sequence[str]] = None,
                   scale: Optional[Scale] = None,
                   mechanisms: Optional[Sequence[str]] = None
                   ) -> List[RunSpec]:
    """The deduplicated union of the named experiments' sweeps.

    ``mechanisms`` replaces the default mechanism set for the
    :data:`MECHANISM_AWARE` experiments, so a custom ``--mechanisms``
    sweep is prefetched by the shared pool instead of the default one.
    """
    scale = scale or current_scale()
    specs: List[RunSpec] = []
    for name in names:
        declaration = SWEEP_DECLARATIONS.get(name)
        if declaration is None:
            continue
        if name in MECHANISM_AWARE:
            specs += declaration(workloads, scale, mechanisms)
        else:
            specs += declaration(workloads, scale)
    return dedupe_specs(specs)


def prefetch_experiments(names: Sequence[str],
                         workloads: Optional[Sequence[str]] = None,
                         scale: Optional[Scale] = None,
                         mechanisms: Optional[Sequence[str]] = None
                         ) -> pool.Sweep:
    """Execute every named experiment's sweep through ONE shared pool.

    Collects each experiment's declared specs, dedupes them (cache
    keys are injective in specs, so spec identity is key identity),
    and fans the union out in a single :func:`pool.execute_sweep`
    call: one ProcessPoolExecutor serves the whole batch, so workers
    drain the global frontier instead of idling at per-experiment
    sweep tails, and each distinct cache key is computed at most once.
    The experiments run afterwards find every point in the runner memo
    and fork nothing.
    """
    return _prefetch(declared_specs(names, workloads, scale, mechanisms))


# ----------------------------------------------------------------------
# Table 1: configuration echo
# ----------------------------------------------------------------------

def run_table1() -> Dict:
    """The simulated system configuration (validation that our defaults
    match the paper's Table 1)."""
    single = single_core_config()
    eight = eight_core_config()
    t = DDR3_1600
    return {
        "id": "table1",
        "processor": {
            "cores": [single.processor.num_cores,
                      eight.processor.num_cores],
            "freq_ghz": single.processor.freq_ghz,
            "issue_width": single.processor.issue_width,
            "mshrs_per_core": single.processor.mshrs_per_core,
            "window": single.processor.window_size,
        },
        "llc": {
            "size_bytes": single.cache.size_bytes,
            "associativity": single.cache.associativity,
            "line_bytes": single.cache.line_bytes,
        },
        "controller": {
            "queue_entries": single.controller.read_queue_size,
            "scheduler": single.controller.scheduler,
            "row_policy": [single.controller.row_policy,
                           eight.controller.row_policy],
        },
        "dram": {
            "type": t.name,
            "bus_mhz": t.freq_mhz,
            "channels": [single.dram.channels, eight.dram.channels],
            "ranks": single.dram.ranks_per_channel,
            "banks": single.dram.banks_per_rank,
            "rows": single.dram.rows_per_bank,
            "row_buffer_bytes": single.dram.row_buffer_bytes,
            "trcd_cycles": t.tRCD,
            "tras_cycles": t.tRAS,
        },
        "chargecache": {
            "entries": single.chargecache.entries,
            "associativity": single.chargecache.associativity,
            "duration_ms": single.chargecache.caching_duration_ms,
            "trcd_reduction": single.chargecache.trcd_reduction_cycles,
            "tras_reduction": single.chargecache.tras_reduction_cycles,
        },
    }


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _mode_names(mode: str) -> Sequence[str]:
    """The names ``mode`` runs: applications (single) or mixes."""
    return WORKLOAD_NAMES if mode == "single" else MIX_NAMES


def _names_for(mode: str, workloads: Optional[Sequence[str]],
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
    """Declare one sweep point (mirrors :func:`_run_for`)."""
    if mode == "single":
        return workload_spec(name, mechanism, scale, **kwargs)
    return mix_spec(name, mechanism, scale, **kwargs)


def _ws_specs(mode: str, names: Sequence[str],
              scale: Scale) -> List[RunSpec]:
    """Alone-run specs backing weighted speedup (eight-core only)."""
    if mode != "eight":
        return []
    specs: List[RunSpec] = []
    for mix in names:
        specs += alone_specs_for_mix(mix, scale)
    return specs


def _run_for(mode: str, name: str, mechanism: str, scale: Scale,
             **kwargs):
    if mode == "single":
        return run_workload(name, mechanism, scale, **kwargs)
    return run_mix(name, mechanism, scale, **kwargs)


def _performance(mode: str, name: str, mechanism: str, scale: Scale,
                 **kwargs) -> float:
    """IPC (single-core) or weighted speedup (eight-core)."""
    result = _run_for(mode, name, mechanism, scale, **kwargs)
    if mode == "single":
        return result.total_ipc
    return weighted_speedup(result.ipcs, alone_ipcs_for_mix(name, scale))
