"""Command-line entry point: ``chargecache-harness <experiment>``.

Examples::

    chargecache-harness table2
    chargecache-harness fig7a --scale 0.5 --jobs 8
    chargecache-harness fig7b --workloads w1 w2 w3
    chargecache-harness all --json results.json --cache-dir /tmp/cc
    chargecache-harness fig9 --no-cache --jobs 0   # recompute, all CPUs

    # Parameterized mechanism specs (repro.core.registry grammar):
    chargecache-harness fig7a --mechanisms "chargecache(entries=256)+nuat"
    chargecache-harness fig7b --mechanisms chargecache "nuat+chargecache"

    # Run-cache maintenance: prune entries whose code fingerprint no
    # longer matches the current sources.
    chargecache-harness cache gc --dry-run
    chargecache-harness cache gc --cache-dir /tmp/cc

    # Query stored results without running anything:
    chargecache-harness query --mechanism chargecache --kind eight
    chargecache-harness query --cache-dir /tmp/cc --kind single --csv

    # Resumable sweeps: every finished point lands in the store, so
    # rerunning a killed sweep against the same store simulates only
    # what is missing; the journal logs each point's key and source.
    chargecache-harness sweep --kind single --workloads hmmer mcf \\
        --mechanisms none chargecache --store /tmp/cc \\
        --journal /tmp/cc-sweep.journal

Experiments are the entries of :data:`repro.harness.experiments.FIGURES`.
The ``all`` command first collects every entry's declared sweep,
dedupes it, and executes the union through one shared process pool
(DESIGN.md section 5), so each distinct run is simulated at most once
and workers never idle between figures.  With ``--workloads`` each
entry runs on the names its modes know; an entry that knows none of
them is skipped.

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

from repro.config import DEFAULT_ENGINE, ENGINES
from repro.harness import experiments, pool, runner
from repro.harness.report import render_experiment
from repro.harness.runner import Execution, Scale, current_scale
from repro.workloads.mixes import MIX_NAMES
from repro.workloads.spec_like import WORKLOAD_NAMES

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
    try:
        Scale().scaled(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _count_arg(text: str) -> int:
    """An integer >= 0 (``--jobs``, ``--limit``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecache-harness",
        description="Regenerate the ChargeCache paper's tables/figures.",
        epilog="maintenance: 'chargecache-harness cache gc [--dry-run] "
               "[--cache-dir DIR]' prunes run-cache entries stranded "
               "by source changes ('cache --help' for details)")
    parser.add_argument("experiment",
                        choices=sorted(experiments.FIGURES) + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="restrict to these workloads/mixes")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        metavar="SPEC",
                        help="mechanism specs to compare (fig7a/fig7b): "
                             "any +-composition of the mechanisms "
                             "with inline parameters, e.g. "
                             "'chargecache(entries=256)+nuat'; validated "
                             "eagerly and normalized so order-permuted "
                             "spellings share cache entries")
    parser.add_argument("--traces", nargs="+", default=None,
                        metavar="PATH",
                        help="trace files for the calibrate experiment "
                             "(default: the bundled golden fixtures "
                             "under tests/fixtures/traces/)")
    _add_execution_flags(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent run cache (recompute "
                             "every sweep point; nothing is read or "
                             "written on disk)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump raw results as JSON")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write one CSV per experiment to DIR, "
                             "plus a cache_manifest.csv recording which "
                             "sweep points were cache hits")
    return parser


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``main`` and ``sweep`` share: scale, engine, pool
    width, progress and the store directory."""
    parser.add_argument("--scale", type=_scale_arg, default=None,
                        metavar="FACTOR",
                        help="instruction-budget multiplier, or a named "
                             "preset: " + ", ".join(
                                 f"{k}={v}" for k, v in
                                 sorted(_SCALE_PRESETS.items(),
                                        key=lambda kv: kv[1])))
    parser.add_argument("--engine", choices=list(ENGINES),
                        default=DEFAULT_ENGINE,
                        help="simulation engine: 'event' (default) skips "
                             "provably idle cycles, 'dense' ticks every "
                             "bus cycle; both give identical statistics")
    parser.add_argument("--jobs", "-j", type=_count_arg, default=None,
                        metavar="N",
                        help="fan sweep points out over N worker "
                             "processes (default: $REPRO_JOBS or 1 = "
                             "serial; 0 = one per CPU); results are "
                             "identical for every N")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per completed sweep point "
                             "to stderr")
    parser.add_argument("--cache-dir", "--store", dest="cache_dir",
                        metavar="DIR", default=None,
                        help="persistent run-store directory (default: "
                             "$REPRO_CACHE_DIR or "
                             "~/.cache/chargecache-repro)")


def _execution(args, **fields) -> Execution:
    """The one :class:`Execution` a parsed command line describes."""
    return Execution(jobs=args.jobs, cache_dir=args.cache_dir,
                     engine=args.engine,
                     progress=pool.stderr_progress if args.progress
                     else None, **fields)


def _scale(args) -> Scale:
    """The current scale, multiplied by ``--scale`` when given."""
    scale = current_scale()
    return scale if args.scale is None else scale.scaled(args.scale)


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
             "older than an hour are swept in the same pass")
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


#: The names each ``sweep --kind`` takes.
_SWEEP_NAMES = {"single": WORKLOAD_NAMES, "alone": WORKLOAD_NAMES,
                "eight": MIX_NAMES}


def _sweep_specs(args) -> List:
    """Build the spec cross-product a ``sweep`` invocation names (the
    engine comes from the installed execution).  Raises ValueError
    for a name the kind does not know, before anything is simulated."""
    known = _SWEEP_NAMES[args.kind]
    unknown = [name for name in args.workloads if name not in known]
    if unknown:
        what = "mix" if args.kind == "eight" else "application"
        raise ValueError(
            f"--workloads: --kind {args.kind} takes {what} names; "
            f"unknown: {', '.join(map(repr, unknown))}")
    mechanisms = [m for m in args.mechanisms if m != "none"]
    if args.kind == "alone" and mechanisms:
        raise ValueError(
            "--mechanisms: --kind alone runs the baseline 'none' only; "
            f"got {', '.join(map(repr, mechanisms))}")
    scale = _scale(args)
    specs = []
    for name in args.workloads:
        for mechanism in args.mechanisms:
            if args.kind == "single":
                spec = runner.workload_spec(name, mechanism, scale,
                                            seed=args.seed)
            elif args.kind == "eight":
                spec = runner.mix_spec(name, mechanism, scale,
                                       seed=args.seed)
            else:
                spec = runner.alone_spec(name, scale, seed=args.seed)
            specs.append(spec)
    return specs


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecache-harness sweep",
        description="Execute one cross-product sweep, resumably: every "
                    "finished point is written to the store as it "
                    "lands and the store is checked before anything "
                    "runs, so rerunning a killed sweep against the "
                    "same store simulates only the missing points.")
    parser.add_argument("--kind", choices=tuple(_SWEEP_NAMES),
                        default="single")
    parser.add_argument("--workloads", nargs="+", required=True,
                        metavar="NAME",
                        help="workload/mix names; crossed with "
                             "--mechanisms into one sweep")
    parser.add_argument("--mechanisms", nargs="+", default=["none"],
                        metavar="SPEC",
                        help="mechanism specs (registry grammar)")
    parser.add_argument("--seed", type=int, default=1)
    _add_execution_flags(parser)
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="append-only log of completed points "
                             "(key, label, source: memory, disk or "
                             "computed), one line per key across "
                             "reruns; resuming needs only the store")
    parser.add_argument("--json", action="store_true",
                        help="print the sweep summary as JSON")
    return parser


def _sweep_main(argv: List[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    runner.set_execution(_execution(args))
    try:
        specs = _sweep_specs(args)
    except (ValueError, KeyError) as exc:
        # A KeyError's str() is its repr; report the message itself.
        parser.error(exc.args[0] if exc.args else str(exc))
    try:
        sweep = pool.execute_sweep(specs, journal=args.journal)
    except pool.SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    store = runner.active_disk_cache()
    counts = sweep.counts()
    if args.json:
        print(json.dumps({"store": store.root if store else None,
                          "journal": args.journal,
                          "counts": counts}, indent=2))
    print(f"sweep: {counts['points']} point(s) — "
          f"{counts['computed']} computed, "
          f"{counts['memory'] + counts['disk']} already stored",
          file=sys.stderr)
    return 0


#: Columns of the ``query`` table: the queryable spec axes, then the
#: headline metrics.
_QUERY_COLUMNS = ("kind", "name", "mechanism", "cc_entries",
                  "cc_duration_ms", "cc_unbounded", "engine", "seed",
                  "total_ipc", "row_hit_rate", "mechanism_hit_rate",
                  "mem_cycles", "activations")

#: The ``query`` filters: spec axes matched exactly.
_QUERY_FILTERS = ("mechanism", "kind", "name", "engine")


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
    for axis in _QUERY_FILTERS:
        parser.add_argument(f"--{axis}", default=None)
    parser.add_argument("--limit", type=_count_arg, default=None)
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
    filters = {axis: getattr(args, axis) for axis in _QUERY_FILTERS
               if getattr(args, axis) is not None}
    if args.mechanism is not None:
        # Stored rows carry the canonical spelling with ChargeCache's
        # entries/duration/unbounded folded into cc_* columns; filter
        # the same way, so every spelling of a run finds it.  A cc_*
        # column filters only when the spec writes its parameter, even
        # at the default (whose runs carry None): a bare "chargecache"
        # matches every capacity, "chargecache(entries=128)" only the
        # default one.
        from repro.core.registry import extract_run_params, written_params
        try:
            (filters["mechanism"], entries, duration,
             unbounded) = extract_run_params(args.mechanism)
        except ValueError as exc:
            parser.error(f"--mechanism: {exc}")  # usage + exit 2
        written = {key for params in written_params(args.mechanism).values()
                   for key in params}
        for column, key, value in (
                ("cc_entries", "entries", entries),
                ("cc_duration_ms", "caching_duration_ms", duration),
                ("cc_unbounded", "unbounded", unbounded)):
            if value or key in written:
                filters[column] = value
    frame = store_frame(RunCache(args.cache_dir), **filters)
    rows = sorted(frame.rows, key=lambda row: (
        row["kind"], row["name"], row["mechanism"], row["cc_unbounded"],
        row["cc_entries"] or 0, row["cc_duration_ms"] or 0.0,
        row["seed"]))[:args.limit]
    headers = list(_QUERY_COLUMNS)
    if args.json:
        table = {"columns": headers,
                 "rows": [{h: row[h] for h in headers} for row in rows],
                 "count": len(rows)}
        print(json.dumps(table, indent=2))
        return 0
    if args.csv:
        # A missing axis is an empty cell, as in the table below.
        from repro.harness.export import rows_to_csv
        print(rows_to_csv([{h: "" if row[h] is None else row[h]
                            for h in headers} for row in rows],
                          columns=headers), end="")
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
    figures = experiments.FIGURES
    names = sorted(figures) if args.experiment == "all" \
        else [args.experiment]
    if args.mechanisms:
        from repro.core.registry import parse_mechanism_spec
        for spec in args.mechanisms:
            try:
                parse_mechanism_spec(spec)
            except ValueError as exc:
                parser.error(f"--mechanisms: {exc}")  # usage + exit 2
    if args.traces is not None:
        import os
        for path in args.traces:
            if not os.path.isfile(path):
                parser.error(f"--traces: no such file: {path}")
    # --mechanisms and --traces override the entries' own params of
    # the same name.
    overrides = {"mechanisms": args.mechanisms, "traces": args.traces}
    for key, value in overrides.items():
        aware = [name for name in sorted(figures)
                 if key in figures[name].params]
        if value is not None and args.experiment not in aware + ["all"]:
            print(f"warning: --{key} is ignored by {args.experiment} "
                  f"(honoured by: {', '.join(aware)})", file=sys.stderr)
    if args.workloads is not None and args.experiment != "all" \
            and not figures[args.experiment].modes:
        aware = [name for name in sorted(figures) if figures[name].modes]
        print(f"warning: --workloads is ignored by {args.experiment} "
              f"(honoured by: {', '.join(aware)})", file=sys.stderr)
    # Each entry runs on the part of --workloads its modes know; a
    # name no entry knows is a usage error.
    plan = {name: experiments.workloads_for(name, args.workloads)
            for name in names}
    known = {w for part in plan.values() for w in part or ()}
    unknown = [w for w in args.workloads or () if w not in known]
    if unknown and any(figures[name].modes for name in names):
        parser.error(f"--workloads: {args.experiment} knows no workload "
                     f"or mix {', '.join(map(repr, unknown))}")
    for name in [name for name, part in plan.items() if part == []]:
        print(f"{name}: skipped (knows none of --workloads)",
              file=sys.stderr)
        del plan[name]
    # One whole value per call, defaults included, so in-process calls
    # never inherit an earlier call's flags (tests drive main()
    # repeatedly).
    runner.set_execution(_execution(args, use_run_cache=not args.no_cache))
    scale = _scale(args)

    if args.experiment == "all":
        # One shared pool for every entry's sweep: collect the union
        # of declared specs, dedupe, execute once.  The entries' own
        # sweeps below then hit the memo and fork nothing, so workers
        # never idle between figures.
        shared = experiments.prefetch_experiments(list(plan), args.workloads,
                                                  scale, **overrides)
        from repro.harness.report import render_cache_annotation
        note = render_cache_annotation(shared.annotation())
        if note:
            print(f"all (shared pool) {note}", file=sys.stderr)
    results: Dict[str, Dict] = {}
    for name, workloads in plan.items():
        result = experiments.run(
            name, workloads, scale,
            **experiments.override_params(name, **overrides))
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
