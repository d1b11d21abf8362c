"""Ratchet: everything ``src/repro`` defines is reached from outside
the test suite.

A name only tests reach is surface the program carries for its tests
alone.  The non-test code is ``src`` itself, ``benchmarks``,
``examples``, ``perfbench``, the CI workflow and the README.  Three
checks scan it:

* **Defs.**  Each public function, class, method and property defined
  under ``src/repro``, and each public name a module assigns at its
  top level (constants, aliases), must appear as an identifier in the
  non-test code.  A name's own definition, docstrings and comments
  are not uses, nor are package ``__init__`` re-exports.  A name inside a
  non-docstring string literal is a use (the perfbench tracer and
  ``getattr`` reach methods by name).  A def under a registering
  decorator (anything but ``property``, ``staticmethod``,
  ``classmethod``, ``setter``, ``dataclass`` and the like) is used:
  the registry calls it.
* **Methods.**  A public method or property must be reached as
  ``.<name>`` or as a ``"<name>"`` string (``"Class.name"`` and
  ``"module:Class"`` paths count per part).  A bare identifier does
  not count, so a method named like a common local variable
  (``mean``, ``column``) is not kept alive by that variable.
* **Attributes.**  Each ``self.<attr>`` assigned under ``src/repro``
  must be read somewhere in the non-test Python: loaded as
  ``.<attr>`` or named in a string.  Writes do not count: neither
  ``x.attr = ...``, ``x.attr += ...`` nor ``x.attr[i] = ...``, nor
  the strings of a ``__slots__``.  A ``self.<attr>`` load reads the
  attribute only of the classes related to its own by inheritance
  (matched by class name): those one instance can belong to together
  with it, that is its ancestors, its descendants and their other
  bases.  So a class's own ``self.duration`` does not keep another
  class's alive.  Any other load is matched by name, so a counter that shares
  its name with an attribute some other object reads (``hits``) is
  not caught.

A name that fails must either gain a use outside ``tests/``, be
deleted (an oracle moves into its test), or go on :data:`ALLOWED`
with the reader or test that keeps it.  A stale :data:`ALLOWED` entry
fails too.

A fourth check holds the run configuration to what is varied: each
leaf field of :class:`repro.config.SimulationConfig` and its blocks
must be passed by keyword to a ``*Config``/``*_config`` constructor or
``replace`` somewhere in the non-test Python.  A value nothing sets is
a constant (Table 1's are module constants of ``repro.config``), or
goes on :data:`TEST_ONLY_KNOBS` with the tests that set it.
"""

import ast
import dataclasses
import functools
import os
import re

import pytest

import repro
from repro.config import SimulationConfig

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
    "_issue_count": "MemoryController's issued-command count: the "
                    "exact command budgets of tests/integration/"
                    "test_wake_bids.py and the action audit of "
                    "test_platform_conformance.py",
    "snapshots": "FRFCFSScheduler's readiness-snapshot count: an exact "
                 "budget in tests/integration/test_wake_bids.py",
    "forwards": "ControllerStats' write-queue forwards: the read "
                "conservation check of tests/controller/"
                "test_controller_fuzz.py (RD issued + forwards == "
                "reads enqueued)",
    "line_no": "TraceFormatError's line number: error information "
               "for callers that catch it (tests/workloads/"
               "test_ingest_formats.py)",
}

#: Configuration fields only tests set, each with the tests that do.
TEST_ONLY_KNOBS = {
    "read_queue_size": "short read queues keep the LLC retry lists "
                       "full (tests/integration/test_engine_parity.py::"
                       "test_tiny_queue_retry_pressure_parity, "
                       "test_wake_bids.py, test_system_variants.py::"
                       "test_tiny_queues_still_drain)",
    "write_queue_size": "short write queues reach write drain and the "
                        "full-write-queue retries (tests/controller/"
                        "test_served_queue.py, tests/integration/"
                        "test_platform_conformance.py, test_engine_parity.py)",
}

#: Decorators that do not register the decorated callable anywhere.
_PLAIN_DECORATORS = frozenset({
    "property", "staticmethod", "classmethod", "setter", "dataclass",
    "abstractmethod", "contextmanager", "cached_property", "lru_cache",
})
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: A string that names code: ``"name"``, ``"Class.name"``,
#: ``"module:Class"``.
_NAME_PATH = re.compile(r"[A-Za-z_][\w.:]*")
#: ``.name`` and ``"name"`` in text (the README, the CI workflow).
_TEXT_MEMBER = re.compile(r"\.([A-Za-z_]\w*)|\"([A-Za-z_][\w.:]*)\"")


def _decorator_name(node) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", "")


def _module_assignments(tree):
    """The ``Name`` nodes a module's top-level statements assign."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Store):
                    yield node


def _definitions(tree):
    """(name, registered) for each public def/class, recursing into
    class bodies (not function bodies), and for each public name the
    module assigns at its top level."""
    for node in _module_assignments(tree):
        if not node.id.startswith("_"):
            yield node.id, False
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
    assigned = {id(node) for node in _module_assignments(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if id(node) not in assigned:
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


def _with_class(tree):
    """``(node, name of the innermost enclosing class or None)`` for
    every node of ``tree``."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        yield node, owner
        inner = node.name if isinstance(node, ast.ClassDef) else owner
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _is_self(node) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def _members(tree):
    """(public method names, ``(class, attr)`` for each ``self.<attr>``
    assigned) of the classes in ``tree``."""
    methods, assigned = set(), set()
    for node, owner in _with_class(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)) \
                        and not child.name.startswith("_") \
                        and all(_decorator_name(d) in _PLAIN_DECORATORS
                                for d in child.decorator_list):
                    methods.add(child.name)
        elif isinstance(node, ast.Attribute) and _is_self(node) \
                and isinstance(node.ctx, ast.Store):
            assigned.add((owner, node.attr))
    return methods, assigned


class _Uses:
    """What the non-test code reaches and reads."""

    def __init__(self):
        #: ``.name`` and name-path parts: reaches a method.
        self.reached = set()
        #: Attribute names loaded off anything but ``self``, and
        #: name-path parts: reads every class's attribute of that name.
        self.read = set()
        #: ``(class, attr)`` of each ``self.<attr>`` load in a class.
        self.self_read = set()
        #: Class name -> the names of its bases.
        self.bases = {}

    def _lineage(self, cls):
        """``cls`` and its ancestors."""
        seen, todo = {cls}, [cls]
        while todo:
            for base in self.bases.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    def related(self, cls):
        """The classes whose ``self.<attr>`` can be ``cls``'s: each
        class that ``cls`` or one of its descendants inherits from
        (ancestors, descendants and the mixins of descendants)."""
        family = set()
        for name in set(self.bases) | {cls}:
            lineage = self._lineage(name)
            if cls in lineage:
                family |= lineage
        return family

    def write_only(self, assigned):
        """Attribute names of ``assigned`` pairs that nothing reads."""
        return {attr for cls, attr in assigned
                if attr not in self.read
                and not any((owner, attr) in self.self_read
                            for owner in self.related(cls))}


def _base_name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) \
        else getattr(node, "id", "")


def _member_uses(tree, uses):
    """Add to ``uses`` every ``.name`` and name-path string reached,
    every attribute load that is not the base of a subscript write
    (``self.<attr>`` loads per enclosing class), the same strings
    (``__slots__`` excluded) and each class's bases."""
    docs = {id(node) for node in _docstrings(tree)}
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    skip.add(id(target.value))
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets):
                skip.update(id(n) for n in ast.walk(node.value))
    for node, owner in _with_class(tree):
        if isinstance(node, ast.ClassDef):
            uses.bases.setdefault(node.name, set()).update(
                _base_name(base) for base in node.bases)
        elif isinstance(node, ast.Attribute):
            uses.reached.add(node.attr)
            if isinstance(node.ctx, ast.Load) and id(node) not in skip:
                if owner is not None and _is_self(node):
                    uses.self_read.add((owner, node.attr))
                else:
                    uses.read.add(node.attr)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in docs \
                and id(node) not in skip \
                and _NAME_PATH.fullmatch(node.value):
            parts = re.split(r"[.:]", node.value)
            uses.reached.update(parts)
            uses.read.update(parts)


def _text_members(text, reached):
    for attr, string in _TEXT_MEMBER.findall(text):
        reached.update([attr] if attr else re.split(r"[.:]", string))


@functools.lru_cache(maxsize=None)
def _member_scan():
    """(unreached methods, write-only attributes)."""
    methods, assigned, uses = set(), set(), _Uses()
    for top in (SRC, os.path.join(ROOT, "benchmarks"),
                os.path.join(ROOT, "examples"),
                os.path.join(ROOT, "perfbench")):
        for path in _files(top, (".py", ".json", ".md", ".yml", ".txt")):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if not path.endswith(".py"):
                _text_members(text, uses.reached)
                continue
            tree = ast.parse(text, path)
            if top == SRC:
                found_methods, found_assigned = _members(tree)
                methods |= found_methods
                assigned |= found_assigned
            _member_uses(tree, uses)
    for path in (os.path.join(ROOT, ".github", "workflows", "ci.yml"),
                 os.path.join(ROOT, "README.md")):
        with open(path, encoding="utf-8") as fh:
            _text_members(fh.read(), uses.reached)
    return (frozenset(methods - uses.reached),
            frozenset(uses.write_only(assigned)))


def test_no_public_name_is_reached_only_from_tests():
    unused, _ = _scan()
    unexplained = sorted(unused - set(ALLOWED))
    assert not unexplained, (
        "public names in src/repro with no use outside tests/ (delete "
        "them, move an oracle into its test, or add them to ALLOWED "
        f"with a reason): {unexplained}")


def test_no_method_is_reached_only_from_tests():
    unreached, _ = _member_scan()
    unexplained = sorted(unreached - set(ALLOWED))
    assert not unexplained, (
        "public methods in src/repro that no non-test file reaches as "
        "`.name` or `\"name\"` (delete them, or add them to ALLOWED with "
        f"the reader or test that keeps them): {unexplained}")


def test_no_attribute_is_written_only():
    _, write_only = _member_scan()
    unexplained = sorted(write_only - set(ALLOWED))
    assert not unexplained, (
        "self.<attr> assigned in src/repro and never read outside "
        "tests/ (delete the state, or add it to ALLOWED with the "
        f"reader or test that keeps it): {unexplained}")


def test_allowlist_is_current_and_explained():
    unused, _ = _scan()
    unreached, write_only = _member_scan()
    stale = sorted(set(ALLOWED) - (unused | unreached | write_only))
    assert not stale, f"ALLOWED entries now used or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


def _config_leaves(cls=SimulationConfig):
    """Names of the leaf fields of ``cls`` and its dataclass blocks."""
    for f in dataclasses.fields(cls):
        default = f.default_factory() if callable(f.default_factory) \
            else f.default
        if dataclasses.is_dataclass(default):
            yield from _config_leaves(type(default))
        else:
            yield f.name


def _configured_keywords():
    """Keywords passed to ``*Config(...)``, ``*_config(...)`` and
    ``replace(...)`` calls in ``src``, ``benchmarks``, ``examples`` and
    ``perfbench``."""
    keywords = set()
    for top in (SRC, os.path.join(ROOT, "benchmarks"),
                os.path.join(ROOT, "examples"),
                os.path.join(ROOT, "perfbench")):
        for path in _files(top, (".py",)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func.attr \
                    if isinstance(node.func, ast.Attribute) \
                    else getattr(node.func, "id", "")
                if callee == "replace" or callee.endswith(
                        ("Config", "_config")):
                    keywords.update(kw.arg for kw in node.keywords
                                    if kw.arg)
    return keywords


def test_every_config_field_is_set_outside_tests():
    leaves = set(_config_leaves())
    unset = sorted(leaves - _configured_keywords() - set(TEST_ONLY_KNOBS))
    assert not unset, (
        "SimulationConfig fields that no non-test code sets (make them "
        "constants in repro.config, or add them to TEST_ONLY_KNOBS with "
        f"the tests that set them): {unset}")
    stale = sorted(set(TEST_ONLY_KNOBS) - (leaves - _configured_keywords()))
    assert not stale, f"TEST_ONLY_KNOBS entries now set or gone: {stale}"


# ----------------------------------------------------------------------
# The member scan's own rules, on hand-written modules
# ----------------------------------------------------------------------

_COUNTER = '''
class Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0
'''

_TABLE = '''
class Table:
    def mean(self):
        return 0.0
'''


def _verdict(source):
    """(unreached methods, write-only attributes) of one module."""
    tree = ast.parse(source)
    methods, assigned = _members(tree)
    uses = _Uses()
    _member_uses(tree, uses)
    return methods - uses.reached, uses.write_only(assigned)


@pytest.mark.parametrize("use", [
    "c.n = 5",
    "c.n += 1",
    "c.n[0] = 1",
    "del c.n[0]",
    'def f(c):\n    """n"""',
], ids=["assign", "augassign", "subscript-store", "subscript-delete",
        "docstring"])
def test_writes_slots_and_docstrings_are_not_reads(use):
    assert _verdict(_COUNTER + use + "\n")[1] == {"n"}


@pytest.mark.parametrize("use", [
    "print(c.n)",
    "x = c.n[0]",
    'getattr(c, "n")',
    'PATH = "Counter.n"',
], ids=["load", "subscript-load", "getattr-string", "dotted-string"])
def test_loads_and_name_strings_are_reads(use):
    assert _verdict(_COUNTER + use + "\n")[1] == set()


@pytest.mark.parametrize("use, unreached", [
    ("mean = 1.0\nprint(mean)", {"mean"}),
    ('def f(t):\n    """mean"""', {"mean"}),
    ("t.mean()", set()),
    ('HOOK = "repro.table:Table.mean"', set()),
], ids=["bare-identifier", "docstring", "attribute", "name-path"])
def test_a_method_is_reached_only_as_attribute_or_name(use, unreached):
    assert _verdict(_TABLE + use + "\n")[0] == unreached


_PERIODS = '''
class Base:
    def __init__(self):
        self.period = 1

class Sweep(Base):
    pass

class Timer:
    def __init__(self):
        self.period = 2

    def wait(self):
        return self.period
'''


@pytest.mark.parametrize("use, write_only", [
    ("", {"period"}),
    ("class Late(Sweep):\n    def f(self):\n        return self.period",
     set()),
    ("class Root:\n    def f(self):\n        return self.period\n"
     "class Base(Root):\n    pass", set()),
    ("class Mixin:\n    def f(self):\n        return self.period\n"
     "class Both(Mixin, Base):\n    pass", set()),
    ("def f(timer):\n    return timer.period", set()),
], ids=["other-class-self-load", "descendant-self-load",
        "ancestor-self-load", "mixin-self-load", "non-self-load"])
def test_a_self_load_reads_only_its_class_family(use, write_only):
    # Base.period is written only: Timer's self.period is its own, but
    # the self.period of a class an instance of Base can also be, or
    # any x.period, reads it.
    assert _verdict(_PERIODS + use + "\n")[1] == write_only
