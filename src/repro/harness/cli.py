"""Command-line entry point: ``chargecache-harness <experiment>``.

Examples::

    chargecache-harness table2
    chargecache-harness fig7a --scale 0.5 --jobs 8
    chargecache-harness fig7b --workloads w1 w2 w3
    chargecache-harness all --json results.json --cache-dir /tmp/cc
    chargecache-harness fig9 --no-cache --jobs 0   # recompute, all CPUs
    chargecache-harness scaling --jobs 4    # core-count x ranks matrix
    chargecache-harness standards --jobs 4  # DDR4/LPDDR3/GDDR5 grades
    chargecache-harness energy --jobs 4     # fig8 x standards family

    # Parameterized mechanism specs (repro.core.registry grammar):
    chargecache-harness fig7a --mechanisms "chargecache(entries=256)+nuat"
    chargecache-harness fig7b --mechanisms chargecache "nuat+chargecache"

    # Run-cache maintenance: prune entries whose code fingerprint no
    # longer matches the current sources.
    chargecache-harness cache gc --dry-run
    chargecache-harness cache gc --cache-dir /tmp/cc

    # Query stored results without running anything:
    chargecache-harness query --mechanism chargecache --standard DDR3-1600
    chargecache-harness query --cache-dir /tmp/cc --kind single --csv

    # Distributed, resumable sweeps: N hosts pointing at one shared
    # store directory partition the sweep by exactly-one-winner claim
    # leases; a killed worker's journal + the store make restarts free.
    chargecache-harness sweep --kind single --workloads hmmer mcf \\
        --mechanisms none chargecache --store /shared/cc \\
        --journal /tmp/worker-a.journal --owner worker-a

The ``all`` command first collects every experiment's declared sweep,
dedupes it, and executes the union through one shared process pool
(DESIGN.md section 5), so each distinct run is simulated at most once
and workers never idle between figures.

Sweep points fan out over ``--jobs`` worker processes and are memoised
in a persistent content-addressed run cache (default
``~/.cache/chargecache-repro``, see DESIGN.md section 4), so re-running
an experiment — in this process or any later one — only simulates
points it has never seen.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.config import ENGINES, ExecutionConfig
from repro.harness import experiments, pool
from repro.harness.report import render_experiment
from repro.harness.runner import (
    apply_execution_config,
    current_scale,
    set_default_engine,
)

#: Experiment name -> callable(workloads, scale, mechanisms) -> result
#: dict.  ``mechanisms`` (the CLI's ``--mechanisms``, a list of
#: registry spec strings) parameterizes the mechanism-comparison
#: figures; the other experiments fix their own mechanisms and ignore
#: it.
_EXPERIMENTS = {
    "fig3a": lambda w, s, m=None: experiments.run_fig3("single", w, s),
    "fig3b": lambda w, s, m=None: experiments.run_fig3("eight", w, s),
    "fig4a": lambda w, s, m=None: experiments.run_fig4("single", w, scale=s),
    "fig4b": lambda w, s, m=None: experiments.run_fig4("eight", w, scale=s),
    "fig6": lambda w, s, m=None: experiments.run_fig6(),
    "table2": lambda w, s, m=None: experiments.run_table2(),
    "fig7a": lambda w, s, m=None: experiments.run_fig7("single", w,
                                                  mechanisms=m, scale=s),
    "fig7b": lambda w, s, m=None: experiments.run_fig7("eight", w,
                                                  mechanisms=m, scale=s),
    "fig8": lambda w, s, m=None: experiments.run_fig8(workloads=w, scale=s),
    "fig9": lambda w, s, m=None: experiments.run_fig9(workloads=w, scale=s),
    "fig10": lambda w, s, m=None: experiments.run_fig10(workloads=w, scale=s),
    "fig11": lambda w, s, m=None: experiments.run_fig11(workloads=w, scale=s),
    "sec63": lambda w, s, m=None: experiments.run_sec63(scale=s),
    "table1": lambda w, s, m=None: experiments.run_table1(),
    "calibrate": lambda w, s, m=None: experiments.run_calibrate(w, s),
    "scaling": lambda w, s, m=None: experiments.run_scaling(w, s),
    "standards": lambda w, s, m=None: experiments.run_standards(w, s),
    "energy": lambda w, s, m=None: experiments.run_energy(w, s),
}

#: Experiments that honour ``--mechanisms``.
_MECHANISM_AWARE = experiments.MECHANISM_AWARE


#: Named ``--scale`` presets (instruction-budget multipliers).
_SCALE_PRESETS = {"tiny": 0.05, "small": 0.25, "half": 0.5, "full": 1.0}


def _scale_arg(text: str) -> float:
    preset = _SCALE_PRESETS.get(text)
    if preset is not None:
        return preset
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a multiplier or one of "
            f"{'/'.join(sorted(_SCALE_PRESETS))}: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("scale must be positive")
    return value


def _jobs_arg(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            "jobs must be >= 0 (0 = one worker per CPU)")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecache-harness",
        description="Regenerate the ChargeCache paper's tables/figures.",
        epilog="maintenance: 'chargecache-harness cache gc [--dry-run] "
               "[--cache-dir DIR]' prunes run-cache entries stranded "
               "by source changes ('cache --help' for details)")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these workloads/mixes")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        metavar="SPEC",
                        help="mechanism specs to compare (fig7a/fig7b): "
                             "any +-composition of registered mechanisms "
                             "with inline parameters, e.g. "
                             "'chargecache(entries=256)+nuat'; validated "
                             "eagerly and normalized so order-permuted "
                             "spellings share cache entries")
    parser.add_argument("--scale", type=_scale_arg, default=None,
                        metavar="FACTOR",
                        help="instruction-budget multiplier, or a named "
                             "preset: " + ", ".join(
                                 f"{k}={v}" for k, v in
                                 sorted(_SCALE_PRESETS.items(),
                                        key=lambda kv: kv[1])))
    parser.add_argument("--traces", nargs="+", default=None,
                        metavar="PATH",
                        help="trace files for the calibrate experiment "
                             "(default: the bundled golden fixtures "
                             "under tests/fixtures/traces/)")
    parser.add_argument("--engine", choices=list(ENGINES),
                        default=None,
                        help="simulation engine: 'event' (default) skips "
                             "provably idle cycles, 'dense' ticks every "
                             "bus cycle; both give identical statistics")
    parser.add_argument("--jobs", "-j", type=_jobs_arg, default=None,
                        metavar="N",
                        help="fan sweep points out over N worker "
                             "processes (default: $REPRO_JOBS or 1 = "
                             "serial; 0 = one per CPU); results are "
                             "identical for every N")
    parser.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="evaluate sweep points that differ only "
                             "in mechanism parameters through one "
                             "shared trace replay (bit-identical "
                             "results, same cache keys; at --jobs N "
                             "each batch group is one pool work unit; "
                             "--no-batch forces one simulation per "
                             "point)")
    parser.add_argument("--cache-dir", "--store", dest="cache_dir",
                        metavar="DIR", default=None,
                        help="persistent run-store directory (default: "
                             "$REPRO_CACHE_DIR or "
                             "~/.cache/chargecache-repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent run cache (recompute "
                             "every sweep point; nothing is read or "
                             "written on disk)")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per completed sweep point "
                             "to stderr")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump raw results as JSON")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write one CSV per experiment to DIR, "
                             "plus a cache_manifest.csv recording which "
                             "sweep points were cache hits")
    return parser


def _cache_summary(result: Dict) -> Optional[str]:
    from repro.harness.report import render_cache_annotation
    note = render_cache_annotation(result.get("cache"))
    return f"{result.get('id', 'experiment')} {note}" if note else None


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecache-harness cache",
        description="Run-cache maintenance commands.")
    sub = parser.add_subparsers(dest="action")
    gc = sub.add_parser(
        "gc",
        help="prune entries whose code fingerprint no longer matches "
             "the current sources (they are unreachable: every key "
             "embeds the fingerprint); staleness is judged against "
             "THIS checkout — with a cache dir shared across branches "
             "or worktrees, other checkouts' entries look stale from "
             "here, so --dry-run first.  Crashed writers' temp files "
             "and crashed sweep workers' claim leases older than an "
             "hour are swept in the same pass")
    gc.add_argument("--cache-dir", "--store", dest="cache_dir",
                    metavar="DIR", default=None,
                    help="store directory to sweep (default: "
                         "$REPRO_CACHE_DIR or "
                         "~/.cache/chargecache-repro)")
    gc.add_argument("--dry-run", action="store_true",
                    help="list stale entries without deleting anything")
    return parser


def _cache_main(argv: List[str]) -> int:
    args = build_cache_parser().parse_args(argv)
    if args.action != "gc":
        build_cache_parser().print_help()
        return 2
    from repro.harness.cache import RunCache
    store = RunCache(args.cache_dir)
    report = store.gc(dry_run=args.dry_run)
    for key, reason in report.stale:
        print(f"stale {key}  ({reason})")
    if args.dry_run:
        print(f"cache gc: would remove {len(report.stale)} stale, "
              f"kept {report.kept} current "
              f"(dir {store.root})")
    else:
        failed = len(report.stale) - report.removed
        note = f" ({failed} could not be deleted)" if failed else ""
        print(f"cache gc: removed {report.removed} stale{note}, "
              f"kept {report.kept} current "
              f"(dir {store.root})")
    return 0


def _sweep_specs(args) -> List:
    """Build the spec cross-product a ``sweep`` invocation names."""
    from repro.harness import runner as run
    scale = current_scale()
    if args.scale:
        scale = scale.scaled(args.scale)
    specs = []
    for name in args.workloads:
        for mechanism in args.mechanisms:
            if args.kind == "single":
                spec = run.workload_spec(name, mechanism, scale,
                                         seed=args.seed,
                                         engine=args.engine)
            elif args.kind == "eight":
                spec = run.mix_spec(name, mechanism, scale,
                                    seed=args.seed, engine=args.engine)
            elif args.kind == "alone":
                spec = run.alone_spec(name, scale, seed=args.seed,
                                      engine=args.engine)
            else:
                if not args.scenario:
                    raise ValueError(
                        "--kind scenario requires --scenario")
                spec = run.scenario_spec(args.scenario, name, mechanism,
                                         scale, seed=args.seed,
                                         engine=args.engine)
            specs.append(spec)
    return specs


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecache-harness sweep",
        description="Execute one sweep as a resumable, distributable "
                    "worker: specs are claimed in chunks with lease "
                    "files in a shared store directory (exactly one "
                    "worker simulates each key), completions are "
                    "checkpointed to a journal, and peers' keys are "
                    "served from the store — N processes pointing at "
                    "one directory partition the sweep with no other "
                    "coordination.")
    parser.add_argument("--kind", choices=("single", "eight", "alone",
                                           "scenario"),
                        default="single")
    parser.add_argument("--scenario", default=None,
                        help="scenario name (kind=scenario only)")
    parser.add_argument("--workloads", nargs="+", required=True,
                        metavar="NAME",
                        help="workload/mix names; crossed with "
                             "--mechanisms into one sweep")
    parser.add_argument("--mechanisms", nargs="+", default=["none"],
                        metavar="SPEC",
                        help="mechanism specs (registry grammar)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=None,
                        help="instruction-budget multiplier")
    parser.add_argument("--engine", choices=list(ENGINES), default=None)
    parser.add_argument("--store", "--cache-dir", dest="store",
                        metavar="DIR", default=None,
                        help="shared store directory every worker "
                             "points at (default: $REPRO_CACHE_DIR or "
                             "~/.cache/chargecache-repro)")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="append-only completion journal; rerun "
                             "with the same journal and store to "
                             "resume a killed sweep without "
                             "re-simulating checkpointed specs")
    parser.add_argument("--owner", default=None,
                        help="claim-owner name written into each "
                             "lease (default: host:pid)")
    parser.add_argument("--jobs", "-j", type=_jobs_arg, default=None,
                        metavar="N", help="local pool width")
    parser.add_argument("--chunk", type=int,
                        default=pool.DEFAULT_CHUNK_SPECS, metavar="N",
                        help="claim granularity in specs (whole batch "
                             "groups, default %(default)s)")
    parser.add_argument("--steal-stale", type=float, default=None,
                        metavar="S",
                        help="steal a peer's claim lease once it is "
                             "S seconds old on the store directory's "
                             "clock (default: never steal)")
    parser.add_argument("--wait", type=float, default=600.0,
                        metavar="S",
                        help="budget for peers' claimed keys to land "
                             "in the store (default %(default)s)")
    parser.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="collapse same-trace variants into one "
                             "replay (claim chunks keep batch groups "
                             "whole either way)")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per completed point")
    parser.add_argument("--json", action="store_true",
                        help="print the sweep summary as JSON")
    return parser


def _sweep_main(argv: List[str]) -> int:
    import os
    import socket

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    try:
        specs = _sweep_specs(args)
    except ValueError as exc:
        parser.error(str(exc))

    from repro.harness import runner
    from repro.harness.store import FileClaimer
    runner.configure_disk_cache(args.store)
    store = runner.active_disk_cache()
    if store is None:
        parser.error("distributed sweeps need the persistent store; "
                     "unset REPRO_NO_CACHE")
    owner = args.owner or f"{socket.gethostname()}:{os.getpid()}"
    claimer = FileClaimer(store, owner=owner,
                          steal_stale_s=args.steal_stale)

    try:
        sweep = pool.execute_sweep(
            specs, jobs=args.jobs,
            progress=pool.stderr_progress if args.progress else None,
            batch=args.batch, journal=args.journal, claimer=claimer,
            chunk_specs=args.chunk, remote_wait_s=args.wait)
    except pool.SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    summary = {"owner": owner,
               "store": store.root,
               "journal": args.journal,
               "counts": sweep.counts()}
    if args.json:
        print(json.dumps(summary, indent=2))
    counts = summary["counts"]
    print(f"sweep: {counts.get('points', len(specs))} point(s) — "
          f"{counts.get('computed', 0)} computed here, "
          f"{counts.get('remote', 0)} from peers, "
          f"{counts.get('memory', 0) + counts.get('disk', 0)} already "
          f"stored", file=sys.stderr)
    return 0


#: Columns of the ``query`` table: the queryable spec axes, then the
#: headline metrics.
_QUERY_COLUMNS = ("kind", "name", "scenario", "mechanism", "standard",
                  "engine", "seed", "total_ipc", "row_hit_rate",
                  "mechanism_hit_rate", "mem_cycles", "activations")


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecache-harness query",
        description="Query the results stored in a run-store directory "
                    "(nothing is simulated); prints a run table.")
    parser.add_argument("--cache-dir", "--store", dest="cache_dir",
                        metavar="DIR", default=None,
                        help="store directory to read (default: "
                             "$REPRO_CACHE_DIR or "
                             "~/.cache/chargecache-repro)")
    for axis in ("scenario", "mechanism", "standard", "kind", "name",
                 "engine"):
        parser.add_argument(f"--{axis}", default=None)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--json", action="store_true",
                        help="emit the raw table as JSON instead of "
                             "rendering it")
    parser.add_argument("--csv", action="store_true",
                        help="emit the table as CSV instead of "
                             "rendering it")
    return parser


def _query_main(argv: List[str]) -> int:
    parser = build_query_parser()
    args = parser.parse_args(argv)
    if args.json and args.csv:
        parser.error("--json and --csv are mutually exclusive")
    from repro.harness.aggregate import store_frame
    from repro.harness.cache import RunCache
    filters = {axis: getattr(args, axis)
               for axis in ("scenario", "mechanism", "standard", "kind",
                            "name", "engine")
               if getattr(args, axis) is not None}
    frame = store_frame(RunCache(args.cache_dir), **filters)
    rows = sorted(frame.rows, key=lambda row: (
        row["scenario"] is None, row["scenario"] or "", row["kind"],
        row["name"], row["mechanism"], row["seed"]))[:args.limit]
    headers = list(_QUERY_COLUMNS)
    if args.json:
        table = {"columns": headers,
                 "rows": [{h: row[h] for h in headers} for row in rows],
                 "count": len(rows)}
        print(json.dumps(table, indent=2))
        return 0
    if args.csv:
        from repro.harness.export import rows_to_csv
        print(rows_to_csv(rows, columns=headers), end="")
        return 0
    from repro.harness.report import format_table
    body = [["" if row[h] is None
             else (f"{row[h]:.4f}" if isinstance(row[h], float)
                   else row[h])
             for h in headers] for row in rows]
    print(format_table(headers, body))
    print(f"{len(rows)} row(s)")
    return 0


def _lint_main(argv: List[str]) -> int:
    from repro.analysis.cli import main as lint_main
    return lint_main(argv)


#: Maintenance/sweep subcommands dispatched before the experiment
#: parser (they have their own argument grammars).
_SUBCOMMANDS = {
    "cache": _cache_main,
    "sweep": _sweep_main,
    "query": _query_main,
    "lint": _lint_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mechanisms:
        from repro.core.registry import parse_mechanism_spec
        for spec in args.mechanisms:
            try:
                parse_mechanism_spec(spec)
            except ValueError as exc:
                parser.error(f"--mechanisms: {exc}")  # usage + exit 2
        if args.experiment not in _MECHANISM_AWARE + ("all",):
            print(f"warning: --mechanisms is ignored by "
                  f"{args.experiment} (honoured by: "
                  f"{', '.join(_MECHANISM_AWARE)})", file=sys.stderr)
    if args.traces is not None:
        import os
        for path in args.traces:
            if not os.path.isfile(path):
                parser.error(f"--traces: no such file: {path}")
        if args.experiment not in ("calibrate", "all"):
            print(f"warning: --traces is ignored by {args.experiment} "
                  f"(honoured by: calibrate)", file=sys.stderr)
    # None restores the bundled default, so CLI calls are stateless
    # even in-process (tests drive main() repeatedly).
    experiments.set_calibration_traces(args.traces)
    scale = current_scale()
    if args.scale:
        scale = scale.scaled(args.scale)
    if args.engine:
        set_default_engine(args.engine)

    execution = ExecutionConfig(jobs=args.jobs, cache_dir=args.cache_dir,
                                use_run_cache=not args.no_cache)
    apply_execution_config(execution)
    pool.set_batching(args.batch)
    experiments.set_default_jobs(args.jobs)
    experiments.set_progress(pool.stderr_progress if args.progress
                             else None)

    names = sorted(_EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    if args.experiment == "all":
        # One shared pool for every experiment's sweep: collect the
        # union of declared specs, dedupe, execute once.  The
        # per-experiment prefetches below then hit the memo and fork
        # nothing, so workers never idle between figures.
        shared = experiments.prefetch_experiments(names, args.workloads,
                                                  scale, args.mechanisms)
        from repro.harness.report import render_cache_annotation
        note = render_cache_annotation(shared.annotation())
        if note:
            print(f"all (shared pool) {note}", file=sys.stderr)
    results: Dict[str, Dict] = {}
    for name in names:
        result = _EXPERIMENTS[name](args.workloads, scale,
                                    args.mechanisms)
        results[name] = result
        print(render_experiment(result))
        print()
        summary = _cache_summary(result)
        if summary:
            print(summary, file=sys.stderr)

    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(results, fh, indent=2, default=str)
        print(f"raw results written to {args.json}", file=sys.stderr)

    if args.csv:
        import os
        from repro.harness.export import export_cache_manifest, write_csv
        os.makedirs(args.csv, exist_ok=True)
        for name, result in results.items():
            path = os.path.join(args.csv, f"{name}.csv")
            write_csv(result, path)
        manifest = export_cache_manifest(results)
        if manifest:
            path = os.path.join(args.csv, "cache_manifest.csv")
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(manifest)
        print(f"CSV files written to {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
