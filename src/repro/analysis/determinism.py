"""Rule ``determinism``: no entropy sources in fingerprinted code.

The content-addressed run cache (DESIGN.md section 4) assumes every
module under the code fingerprint (:func:`repro.harness.cache.
code_fingerprint` — all of ``src/repro``) computes results as a pure
function of (spec, sources).  A clock read, an unseeded RNG or a
hash-order-dependent set iteration anywhere on a result path silently
poisons content-addressed keys: two runs of the same key disagree, and
the parity/byte-identity suites can only catch the instances they
happen to execute.

Flagged:

* references to wall-clock/entropy sources — ``time.time``,
  ``time.time_ns``, ``os.urandom``, ``datetime.datetime.now`` /
  ``utcnow`` / ``today`` (references, not just calls, so
  ``field(default_factory=time.time)`` is caught too);
* the process-global ``random`` module functions (``random.random``,
  ``random.randint``, ...) — a ``random.Random(seed)`` instance is the
  sanctioned spelling — and ``numpy.random`` convenience functions /
  zero-argument (unseeded) generator constructors;
* direct iteration over a set (``for x in {...}``, comprehensions,
  ``list(set(...))``): string hashing is randomized per process, so
  the order is nondeterministic — ``sorted(...)`` first.

Legitimate sites (operational timestamps that never reach a result)
carry ``# repro: allow(determinism) -- <reason>``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional

from repro.analysis.base import (
    Finding,
    Module,
    import_map,
    parent,
    resolve,
)

RULE = "determinism"

#: Fully-resolved names that read wall clocks or OS entropy.
ENTROPY_SOURCES = frozenset({
    "time.time", "time.time_ns", "os.urandom",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Seedable constructors: fine when called with an explicit seed
#: argument, flagged when called bare.
SEEDED_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng",
    "numpy.random.Generator", "numpy.random.RandomState",
    "numpy.random.SeedSequence",
})

#: ``random`` module attributes that are not the global-RNG trap.
RANDOM_EXEMPT = frozenset({"random.Random", "random.seed"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def check(module: Module) -> Iterable[Finding]:
    """Every determinism finding in ``module``, before pragmas."""
    imports = import_map(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield from _check_reference(module, node, imports)
        elif isinstance(node, ast.For):
            yield from _check_iteration(module, node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp,
                               ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield from _check_iteration(module, gen.iter,
                                            "comprehension")
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in ("list", "tuple") \
                and len(node.args) == 1 \
                and _is_set_expr(node.args[0]):
            yield _finding(
                module, node,
                f"{node.func.id}() of a set depends on hash order, "
                f"which is randomized per process; sort it with "
                f"sorted(...) instead")


def _finding(module: Module, node: ast.AST, message: str) -> Finding:
    return Finding(file=module.relpath, line=getattr(node, "lineno", 1),
                   rule=RULE, message=message)


# -- entropy / RNG -----------------------------------------------------

def _check_reference(module: Module, node: ast.AST,
                     imports: Dict[str, str]) -> Iterable[Finding]:
    # Only the *maximal* dotted chain is checked, so time.time()
    # yields one finding on the full chain, not one per segment.
    if isinstance(parent(node), ast.Attribute):
        return
    name = resolve(node, imports)
    if name is None:
        return
    if name in ENTROPY_SOURCES:
        yield _finding(
            module, node,
            f"{name} is nondeterministic; fingerprint-covered "
            f"modules must compute results purely from "
            f"(spec, sources)")
        return
    if name in SEEDED_CONSTRUCTORS:
        call = _call_of(node)
        if call is not None and not call.args and not call.keywords:
            yield _finding(
                module, node,
                f"{name}() without an explicit seed is "
                f"nondeterministic; pass a seed derived from the "
                f"spec")
        return
    if name.startswith("random.") and name not in RANDOM_EXEMPT:
        yield _finding(
            module, node,
            f"{name} uses the process-global unseeded RNG; use a "
            f"random.Random(seed) instance derived from the spec")
    elif name.startswith("numpy.random.") \
            and name not in SEEDED_CONSTRUCTORS:
        yield _finding(
            module, node,
            f"{name} uses numpy's global RNG; use "
            f"numpy.random.default_rng(seed) derived from the "
            f"spec")


def _call_of(node: ast.AST) -> Optional[ast.Call]:
    """The Call whose func is ``node``, if that is its role."""
    up = parent(node)
    if isinstance(up, ast.Call) and up.func is node:
        return up
    return None


# -- set iteration -----------------------------------------------------

def _check_iteration(module: Module, iter_expr: ast.AST,
                     context: str) -> Iterable[Finding]:
    if _is_set_expr(iter_expr):
        yield _finding(
            module, iter_expr,
            f"{context} iterates a set, whose order is randomized "
            f"per process (PYTHONHASHSEED); iterate "
            f"sorted(...) instead")
