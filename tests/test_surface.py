"""Ratchet: every public def, class and property in ``src/repro`` is
reached from outside the test suite.

A name only tests call is surface the program carries for its tests
alone.  This scan finds each public function, class, method and
property defined under ``src/repro`` and looks for its name as an
identifier in the code that is not a test: ``src`` itself,
``benchmarks``, ``examples``, ``perfbench``, the CI workflow and the
README.  Rules:

* A name's own definition, docstrings and comments are not uses.
* Package ``__init__`` re-exports are not uses.
* A name inside a non-docstring string literal is a use (the perfbench
  tracer and ``getattr`` reach methods by name).
* A def under a registering decorator (anything but ``property``,
  ``staticmethod``, ``classmethod``, ``setter``, ``dataclass`` and the
  like) is used: the registry calls it.

A name that fails must either gain a use outside ``tests/``, be
deleted (an oracle moves into its test), or go on :data:`ALLOWED`
with the reason it stays.  A stale :data:`ALLOWED` entry fails too.
"""

import ast
import functools
import os
import re

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))

#: Names only tests reach that stay, each with its reason.
ALLOWED = {
    "clear_caches": "test fixture: resets the per-process memo and "
                    "the bound run store between tests (conftest)",
    "read_request": "test fixture builder for controller requests",
    "write_request": "test fixture builder for controller requests",
    "trace_from_tuples": "test fixture builder for hand-written core "
                         "traces",
    "write_mem_trace": "writes the bundled trace fixtures "
                       "(tests/fixtures/traces/make_fixtures.py), the "
                       "inverse of the ingest reader",
    "denormalize_records": "the inverse of the ingest normalizer, "
                           "paired with write_mem_trace to export a "
                           "simulator trace (DESIGN.md, trace formats)",
    "row_key": "the definition of the HCRAC row-key packing that "
               "ChargeCache's hooks inline; the oracle tests hold the "
               "inline copies to it",
    "eight_core_config": "Table 1's eight-core system, the library "
                         "pair of single_core_config (which "
                         "examples/quickstart.py uses)",
}

#: Decorators that do not register the decorated callable anywhere.
_PLAIN_DECORATORS = frozenset({
    "property", "staticmethod", "classmethod", "setter", "dataclass",
    "abstractmethod", "contextmanager", "cached_property", "lru_cache",
})
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _decorator_name(node) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", "")


def _definitions(tree):
    """(name, registered) for each public def/class, recursing into
    class bodies (not function bodies)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            registered = any(_decorator_name(d) not in _PLAIN_DECORATORS
                             for d in child.decorator_list)
            if not child.name.startswith("_"):
                yield child.name, registered
            if isinstance(child, ast.ClassDef):
                stack.append(child)


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant):
                yield first.value


def _python_uses(tree, uses):
    docs = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.add((node.asname or node.name).split(".")[-1])
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in docs:
            uses.update(_TOKEN.findall(node.value))


def _files(top, suffixes):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames
                       if d != "__pycache__" and not d.startswith(".")]
        for filename in filenames:
            if filename.endswith(suffixes):
                yield os.path.join(dirpath, filename)


@functools.lru_cache(maxsize=None)
def _scan():
    defined = {}
    uses = set()
    for path in _files(SRC, (".py",)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for name, registered in _definitions(tree):
            defined[name] = defined.get(name, False) or registered
        if os.path.basename(path) != "__init__.py":
            _python_uses(tree, uses)
    for top in ("benchmarks", "examples", "perfbench"):
        for path in _files(os.path.join(ROOT, top),
                           (".py", ".json", ".md", ".yml", ".txt")):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if path.endswith(".py"):
                _python_uses(ast.parse(text, path), uses)
            else:
                uses.update(_TOKEN.findall(text))
    for path in (os.path.join(ROOT, ".github", "workflows", "ci.yml"),
                 os.path.join(ROOT, "README.md")):
        with open(path, encoding="utf-8") as fh:
            uses.update(_TOKEN.findall(fh.read()))
    return (frozenset(name for name, registered in defined.items()
                      if not registered and name not in uses),
            frozenset(defined))


def test_no_public_name_is_reached_only_from_tests():
    unused, _ = _scan()
    unexplained = sorted(unused - set(ALLOWED))
    assert not unexplained, (
        "public names in src/repro with no use outside tests/ (delete "
        "them, move an oracle into its test, or add them to ALLOWED "
        f"with a reason): {unexplained}")


def test_allowlist_is_current_and_explained():
    unused, defined = _scan()
    stale = sorted(name for name in ALLOWED
                   if name not in defined or name not in unused)
    assert not stale, f"ALLOWED entries now used or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
