"""``repro lint`` / ``python -m repro.analysis`` entry point.

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--json PATH``
writes the machine-readable report even when findings exist (CI
uploads it as an artifact on failure), ``--json -`` prints it to
stdout instead of the text report.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import repro
from repro.analysis.engine import run_lint
from repro.analysis.report import render_json, render_text


def default_target() -> str:
    """The installed ``repro`` package tree — what the cache
    fingerprints, hence what must lint clean."""
    return os.path.dirname(os.path.abspath(repro.__file__))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant linter: cache-key "
                    "determinism, registry fork/replay contract, "
                    "RunSpec key-material exhaustiveness, "
                    "fsync-before-rename in persistence modules.")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro package)")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the JSON report to PATH ('-' for stdout, "
             "replacing the text report)")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the text report (exit status only)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    paths = args.paths or [default_target()]
    for path in paths:
        if not os.path.exists(path):
            print(f"repro lint: no such path: {path}",
                  file=sys.stderr)
            return 2
    report = run_lint(paths)
    if args.json == "-":
        print(render_json(report))
    else:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(render_json(report) + "\n")
        if not args.quiet:
            print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
