"""Lint orchestration: discover files, run the rule, apply pragmas.

The engine walks the requested paths, parses every ``.py`` file once,
runs the ``determinism`` rule over each module, and then reconciles
findings against ``# repro: allow(...)`` pragmas:

* a finding is suppressed only by a *valid* pragma — same file, same
  line, same rule, with a written justification after ``--``;
* an invalid pragma (malformed body, unknown rule, missing reason)
  never suppresses anything and is itself a ``pragma`` finding;
* a valid pragma that suppresses nothing is an *unused* ``pragma``
  finding, so allowances cannot outlive the code they excused.

Files that fail to parse yield a single ``parse`` finding and are
skipped by the rule.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterable, List, Tuple

from repro.analysis import determinism
from repro.analysis.base import Finding, Module, Pragma, scan_pragmas

#: Rules a pragma may name.  The synthetic ``parse``/``pragma`` rules
#: are not suppressible — a file that cannot be tokenized cannot carry
#: a trustworthy pragma either.
KNOWN_RULES = (determinism.RULE,)

SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file under ``paths``, sorted for stable output."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in SKIP_DIRS
                                 and not d.startswith("."))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    files.append(os.path.join(dirpath, filename))
    return sorted(dict.fromkeys(files))


def _relpath(path: str) -> str:
    rel = os.path.relpath(path)
    return path if rel.startswith("..") else rel


@dataclasses.dataclass
class LintReport:
    """Everything one lint run produced, ready for a reporter."""

    findings: List[Finding]
    files_checked: int
    pragmas_seen: int

    @property
    def ok(self) -> bool:
        return not self.findings


def load_modules(files: Iterable[str]
                 ) -> Tuple[List[Module], List[Pragma],
                            List[Finding]]:
    modules: List[Module] = []
    pragmas: List[Pragma] = []
    findings: List[Finding] = []
    for path in files:
        relpath = _relpath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                file=relpath, line=1, rule="parse",
                message=f"cannot read file: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(Finding(
                file=relpath, line=exc.lineno or 1, rule="parse",
                message=f"syntax error: {exc.msg}"))
            continue
        modules.append(Module(path=path, relpath=relpath,
                              source=source, tree=tree))
        pragmas.extend(scan_pragmas(source, relpath))
    return modules, pragmas, findings


def _apply_pragmas(raw: List[Finding], pragmas: List[Pragma]
                   ) -> List[Finding]:
    """Suppress pragma-excused findings; flag bad/unused pragmas."""
    by_site: Dict[Tuple[str, int, str], Pragma] = {}
    for pragma in pragmas:
        if pragma.well_formed and pragma.justified \
                and pragma.rule in KNOWN_RULES:
            by_site[(pragma.file, pragma.line, pragma.rule)] = pragma

    kept: List[Finding] = []
    for finding in raw:
        pragma = by_site.get(
            (finding.file, finding.line, finding.rule))
        if pragma is not None:
            pragma.used = True
        else:
            kept.append(finding)

    for pragma in pragmas:
        if not pragma.well_formed:
            kept.append(Finding(
                file=pragma.file, line=pragma.line, rule="pragma",
                message=f"malformed pragma '# repro: {pragma.body}'; "
                        f"expected 'allow(<rule>) -- <reason>'"))
        elif pragma.rule not in KNOWN_RULES:
            kept.append(Finding(
                file=pragma.file, line=pragma.line, rule="pragma",
                message=f"unknown rule '{pragma.rule}' in pragma; "
                        f"known rules: {', '.join(KNOWN_RULES)}"))
        elif not pragma.justified:
            kept.append(Finding(
                file=pragma.file, line=pragma.line, rule="pragma",
                message=f"pragma allow({pragma.rule}) has no "
                        f"justification; append '-- <reason>' "
                        f"explaining why this site is exempt"))
        elif not pragma.used:
            kept.append(Finding(
                file=pragma.file, line=pragma.line, rule="pragma",
                message=f"unused pragma allow({pragma.rule}); no "
                        f"finding of that rule on this line -- "
                        f"remove the stale allowance"))
    return kept


def run_lint(paths: Iterable[str]) -> LintReport:
    """Lint ``paths`` (files or directories) and return the report."""
    files = iter_python_files(paths)
    modules, pragmas, findings = load_modules(files)
    raw = [finding for module in modules
           for finding in determinism.check(module)]
    findings.extend(_apply_pragmas(raw, pragmas))
    return LintReport(findings=sorted(set(findings)),
                      files_checked=len(files),
                      pragmas_seen=len(pragmas))
