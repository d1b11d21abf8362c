"""Linter core: findings, pragmas and parsed modules.

``repro lint`` (DESIGN.md section 9) guards the one invariant no unit
test can enforce globally: every fingerprinted module computes its
results deterministically.  This module holds the shared machinery: a
:class:`Finding` (one ``file:line:rule: message`` diagnostic), the
per-line allowlist pragma grammar, a parsed :class:`Module`, and the
import-resolution helpers the determinism rule walks the AST with.

Pragma grammar (justification is mandatory)::

    # repro: allow(<rule>) -- <reason>

A pragma suppresses findings of ``<rule>`` on its own line *only* when
it carries a reason; an unjustified, unknown-rule, malformed or unused
pragma is itself a finding, so allowances can neither be vague nor go
stale silently.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Dict, List, Optional

#: Matches any comment claiming to be a repro pragma; the body is then
#: validated against :data:`ALLOW_RE` so typos are findings, not
#: silently-ignored comments.
PRAGMA_RE = re.compile(r"#\s*repro:\s*(?P<body>.*)$")

#: The one well-formed pragma shape: ``allow(<rule>) -- <reason>``.
ALLOW_RE = re.compile(
    r"^allow\(\s*(?P<rule>[a-z][a-z0-9_\-]*)\s*\)"
    r"\s*(?:--\s*(?P<reason>\S.*))?$")


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, formatted as ``file:line:rule: message``."""

    file: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}:{self.rule}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "line": self.line,
                "rule": self.rule, "message": self.message}


@dataclasses.dataclass
class Pragma:
    """One ``# repro:`` comment found in a module's token stream.

    ``rule``/``reason`` are None when the body does not parse as an
    ``allow(...)`` clause; ``used`` is set by the engine when the
    pragma actually suppresses a finding.
    """

    file: str
    line: int
    body: str
    rule: Optional[str]
    reason: Optional[str]
    used: bool = False

    @property
    def well_formed(self) -> bool:
        return self.rule is not None

    @property
    def justified(self) -> bool:
        return self.reason is not None and bool(self.reason.strip())


def scan_pragmas(source: str, file: str) -> List[Pragma]:
    """Every ``# repro:`` comment in ``source``, via the tokenizer.

    Tokenizing (rather than regexing raw lines) means pragma-shaped
    text inside string literals is never misread as a pragma.
    """
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = PRAGMA_RE.search(tok.string)
            if not match:
                continue
            body = match.group("body").strip()
            allow = ALLOW_RE.match(body)
            pragmas.append(Pragma(
                file=file, line=tok.start[0], body=body,
                rule=allow.group("rule") if allow else None,
                reason=allow.group("reason") if allow else None))
    except tokenize.TokenError:
        pass  # the parse-error finding already covers this module
    return pragmas


@dataclasses.dataclass
class Module:
    """One parsed source file, with parent links on every AST node."""

    path: str
    relpath: str
    source: str
    tree: ast.Module

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._repro_parent = node  # type: ignore[attr-defined]


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_repro_parent", None)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully-dotted origin, for import resolution.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime
    import datetime`` maps ``datetime -> datetime.datetime``.  Only
    module-level and function-level imports are walked (the whole
    tree), which is all resolution a repo-local linter needs.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports stay repo-local anyway
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def resolve(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted name ``node`` refers to, or None."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    origin = imports.get(root, root)
    return f"{origin}.{rest}" if rest else origin
