"""A simulation process imports only what its run executes.

Subpackages export nothing, a figure model (the circuit and energy
models) is imported by the reducer that uses it, a probe by the run
that enables it, and a built-in mechanism's module by the first lookup
of its name.  The top-level ``repro`` keeps its quick-tour names, each
resolved from its defining module on first use.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules no fig9 or fig7b sweep executes.
UNUSED_BY_SWEEPS = (
    "repro.circuit.spice",
    "repro.circuit.sense_amp",
    "repro.energy.mcpat",
    "repro.workloads.ingest",
    "repro.harness.report",
    "repro.stats.rltl",
    "repro.stats.reuse",
    "repro.stats.probes",
)

#: Runs tiny fig9 and fig7b sweeps through ``experiments.run`` (not the
#: CLI, which renders its tables with ``report``) and prints the
#: ``repro`` modules the process loaded.
_SWEEPS = """
import sys
from repro.harness import experiments, runner
from repro.harness.spec import Scale
scale = Scale().scaled(0.05)
with runner.executing(jobs=1, use_run_cache=False):
    experiments.run("fig9", ["hmmer", "mcf"], scale)
    experiments.run("fig7b", ["w1"], scale)
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _run(code):
    """Run ``code`` in a fresh interpreter on this source tree."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_sweeps_load_no_figure_model_probe_or_report():
    done = _run(_SWEEPS)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "repro.cpu.system" in loaded, done.stdout
    assert not loaded & set(UNUSED_BY_SWEEPS), sorted(
        loaded & set(UNUSED_BY_SWEEPS))


#: Parses a composition before and after every built-in mechanism is
#: loaded and prints the first canonical string and the ``repro.core``
#: modules the first parse loaded.
_ONE_LOOKUP = """
import sys
from repro.core import registry
spec = "nuat+chargecache(entries=256)"
first = registry.parse_mechanism_spec(spec).canonical()
loaded = sorted(m for m in sys.modules if m.startswith("repro.core."))
registry.mechanism_names()
assert registry.parse_mechanism_spec(spec).canonical() == first
print(first)
print(" ".join(loaded))
"""


def test_a_lookup_loads_only_the_named_mechanisms():
    done = _run(_ONE_LOOKUP)
    assert done.returncode == 0, done.stderr
    canonical, loaded = done.stdout.splitlines()
    assert canonical == "chargecache(entries=256)+nuat"
    assert "repro.core.nuat" in loaded.split()
    assert "repro.core.aldram" not in loaded.split()
    assert "repro.core.lldram" not in loaded.split()


#: Imports ``repro`` alone, then resolves every exported name.
_QUICK_TOUR = """
import sys
import repro
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))
listed = dir(repro)
for name in repro.__all__:
    assert getattr(repro, name) is not None, name
    assert name in listed, name
"""


def test_import_repro_loads_nothing_until_a_name_is_used():
    done = _run(_QUICK_TOUR)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
