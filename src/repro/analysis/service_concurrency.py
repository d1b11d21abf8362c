"""Rule ``service-concurrency``: durable publication of shared files.

Store directories are read and written by many processes at once (pool
workers, distributed sweep peers on other hosts), which unit tests that
run one process at a time never exercise.  One convention keeps those
readers safe:

* **Renames are durable.**  ``os.rename``/``os.replace``/
  ``Path.rename`` publishes a file atomically only if the bytes were
  fsynced first; a rename with no earlier fsync in the same function
  can publish an empty file after a crash.

The rule applies to modules under a ``service/`` directory
(path-scoped, so test fixtures placed there exercise it) and, by
basename wherever they live, to the harness modules that publish files
other processes read concurrently (:data:`SCOPED_BASENAMES`): the run
store's envelope writer, its claim leases and the sweep journal.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    dotted_name,
    enclosing_function,
    import_map,
    resolve,
)

#: Modules outside ``service/`` that publish files across process
#: boundaries and therefore carry the same discipline.
SCOPED_BASENAMES = ("cache.py", "store.py", "journal.py")


class ServiceConcurrencyChecker(Checker):
    rule = "service-concurrency"
    description = "fsync before rename in file-publishing modules"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            scoped = ("service" in module.parts[:-1]
                      or module.parts[-1] in SCOPED_BASENAMES)
            if not scoped:
                continue
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterable[Finding]:
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve(node.func, imports)
            # `.replace` alone is too ambiguous (str.replace); only the
            # resolved os functions and Path-style `.rename` count.
            if resolved in ("os.rename", "os.replace") \
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "rename"):
                yield from self._check_rename(
                    module, node, resolved or dotted_name(node.func))

    def _check_rename(self, module: Module, call: ast.Call,
                      name: Optional[str]) -> Iterable[Finding]:
        func = enclosing_function(call)
        scope: ast.AST = module.tree if func is None else func
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) \
                    and getattr(node, "lineno", 0) < call.lineno:
                dotted = dotted_name(node.func) or ""
                if "fsync" in dotted:
                    return
        yield self.finding(
            module, call,
            f"{name or 'rename'}() without a preceding fsync in the "
            f"same function; an unsynced rename can publish an empty "
            f"file after a crash")
