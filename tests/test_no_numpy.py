"""numpy is a test-only dependency: the program runs without it.

The synthetic traces draw from :mod:`repro.workloads.rng`, a stdlib
port of the numpy stream they used to take from numpy (numpy is its
oracle in ``tests/workloads/test_rng.py``).  Nothing under
``src/repro`` may import numpy, and a figure must run in a process
where ``import numpy`` fails.
"""

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: Runs a tiny figure with every ``import numpy`` raising ImportError.
_FIGURE_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from repro.harness.cli import main
sys.exit(main(["fig7a", "--workloads", "hmmer", "mcf", "--scale", "tiny",
               "--no-cache", "--jobs", "1"]))
"""


def _imported_roots(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_numpy():
    importers = []
    for dirpath, _, filenames in os.walk(SRC):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if name.endswith(".py") and "numpy" in _imported_roots(path):
                importers.append(os.path.relpath(path, SRC))
    assert not importers, f"modules importing numpy: {importers}"


def test_a_figure_runs_with_numpy_unimportable():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.dirname(SRC)
    done = subprocess.run([sys.executable, "-c", _FIGURE_WITHOUT_NUMPY],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "hmmer" in done.stdout and "mcf" in done.stdout, done.stdout
