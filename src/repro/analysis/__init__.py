"""AST-based invariant linter for the repro tree (``repro lint``).

Four rules guard what unit tests cannot check globally: cache-key
determinism of every fingerprinted module, the mechanism registry's
fork/replay contract, RunSpec key-material exhaustiveness, and durable
(fsync-before-rename) publication in the persistence modules.  See
DESIGN.md section 9.
"""

from repro.analysis.base import Checker, Finding, Module, Project
from repro.analysis.engine import (
    KNOWN_RULES,
    RULES,
    LintReport,
    run_lint,
)
from repro.analysis.report import render_json, render_text

__all__ = [
    "Checker",
    "Finding",
    "KNOWN_RULES",
    "LintReport",
    "Module",
    "Project",
    "RULES",
    "render_json",
    "render_text",
    "run_lint",
]
