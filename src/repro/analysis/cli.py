"""``repro lint`` entry point (``python -m repro lint``).

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--json PATH``
also writes the machine-readable report, even when findings exist
(CI uploads it as an artifact on failure).
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
        description="AST-based determinism linter: no clock reads, "
                    "unseeded RNGs or set-order iteration in "
                    "fingerprinted modules.")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro package)")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the JSON report to PATH")
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
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(render_json(report) + "\n")
    print(render_text(report))
    return 0 if report.ok else 1
