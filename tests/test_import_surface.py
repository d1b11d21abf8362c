"""A simulation process imports only what its run executes.

Subpackages export nothing, a figure model (the circuit and energy
models) is imported by the reducer that uses it, a probe by the run
that enables it, a built-in mechanism's module by the first lookup of
its name, and the cycle-level model by the first point a process
simulates: declaring, keying, recalling and reducing runs load none of
it.  The top-level ``repro`` keeps its quick-tour names, each resolved
from its defining module on first use.
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

#: The cycle-level model: the system, its cores and LLC, the memory
#: controller (the package: any of its modules loads it) and the DRAM
#: channel.  Only a process that simulates a point loads these.
CYCLE_MODEL = (
    "repro.cpu.system",
    "repro.cpu.core",
    "repro.cpu.cache",
    "repro.controller",
    "repro.dram.channel",
    "repro.dram.bank",
    "repro.dram.rank",
    "repro.dram.refresh",
    "repro.dram.commands",
)

#: The synthetic trace generators and the RNG they draw from: only a
#: process that draws a trace (or a mix's composition) loads these.
TRACE_GENERATORS = (
    "repro.workloads.rng",
    "repro.workloads.synthetic",
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


def _run(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter on this
    source tree."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_sweeps_load_no_figure_model_probe_or_report():
    done = _run(_SWEEPS)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "repro.cpu.system" in loaded, done.stdout
    assert not loaded & set(UNUSED_BY_SWEEPS), sorted(
        loaded & set(UNUSED_BY_SWEEPS))


#: Declares the fig7a (all applications), fig7b (two mixes) and fig9
#: sweeps, binds a store, keys the first point and prints the ``repro``
#: modules the process loaded.
_DECLARE = """
import sys
from repro.harness import cache, experiments, runner
from repro.harness.spec import Scale
from repro.workloads.spec_like import WORKLOAD_NAMES
scale = Scale().scaled(0.05)
fig7a = experiments.declared_specs(["fig7a"], None, scale)
assert {spec.name for spec in fig7a} == set(WORKLOAD_NAMES)
specs = (fig7a + experiments.declared_specs(["fig7b"], ["w1", "w2"], scale)
         + experiments.declared_specs(["fig9"], None, scale))
runner.configure_disk_cache(sys.argv[1])
assert runner.active_disk_cache() is not None
assert len(cache.cache_key(specs[0])) == 64
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def test_declaring_and_keying_sweeps_loads_no_cycle_model(tmp_path):
    done = _run(_DECLARE, str(tmp_path / "store"))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & set(CYCLE_MODEL), sorted(loaded & set(CYCLE_MODEL))
    # No standard carries an energy model: declaring loads none.
    assert "repro.energy.drampower" not in loaded


#: Declares the fig7a (all applications) and fig9 sweeps, binds a
#: store, keys every point and prints the ``repro`` modules loaded.
_DECLARE_APPLICATIONS = """
import sys
from repro.harness import cache, experiments, runner
from repro.harness.spec import Scale
scale = Scale().scaled(0.05)
specs = (experiments.declared_specs(["fig7a"], None, scale)
         + experiments.declared_specs(["fig9"], None, scale))
runner.configure_disk_cache(sys.argv[1])
assert len({cache.cache_key(spec) for spec in specs}) == len(set(specs))
print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def test_declaring_and_keying_sweeps_loads_no_trace_generator(tmp_path):
    """A spec names its workload; the generators and the RNG load
    with the first trace a process draws."""
    done = _run(_DECLARE_APPLICATIONS, str(tmp_path / "store"))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "repro.workloads.spec_like" in loaded, done.stdout
    assert not loaded & set(TRACE_GENERATORS), \
        sorted(loaded & set(TRACE_GENERATORS))


#: Runs the ``repro`` CLI with the modules named before ``--`` made
#: unimportable and the arguments after it.
_CLI = """
import runpy, sys
split = sys.argv.index("--")
for name in sys.argv[1:split]:
    sys.modules[name] = None
sys.argv = ["repro.harness.cli", *sys.argv[split + 1:]]
runpy.run_module("repro.harness.cli", run_name="__main__")
"""


def _sources(manifest):
    """The source column of a ``cache_manifest.csv``."""
    with open(manifest) as fh:
        lines = fh.read().splitlines()
    column = lines[0].split(",").index("source")
    return {line.split(",")[column] for line in lines[1:]}


def test_a_warm_figure_loads_no_cycle_model(tmp_path):
    """A tiny fig7a runs cold into a store; rerun with every
    ``CYCLE_MODEL`` and ``TRACE_GENERATORS`` module unimportable, it is
    served whole from the store and writes the same table."""
    store = str(tmp_path / "store")
    argv = ["fig7a", "--workloads", "hmmer", "mcf", "--scale", "tiny",
            "--jobs", "1", "--cache-dir", store, "--csv"]
    cold = _run(_CLI, "--", *argv, str(tmp_path / "cold"))
    assert cold.returncode == 0, cold.stderr
    warm = _run(_CLI, *CYCLE_MODEL, *TRACE_GENERATORS, "--", *argv,
                str(tmp_path / "warm"))
    assert warm.returncode == 0, warm.stderr
    assert _sources(tmp_path / "cold" / "cache_manifest.csv") \
        == {"computed"}
    assert _sources(tmp_path / "warm" / "cache_manifest.csv") == {"disk"}
    assert (tmp_path / "warm" / "fig7a.csv").read_bytes() \
        == (tmp_path / "cold" / "fig7a.csv").read_bytes()
    assert warm.stdout == cold.stdout


#: Runs a two-point sweep on two workers without a store and prints
#: whether the parent loaded the system model.
_PARALLEL = """
import sys
from repro.harness import pool, runner
from repro.harness.spec import RunSpec, Scale
scale = Scale().scaled(0.02)
specs = [RunSpec(kind="single", name=name, scale=scale)
         for name in ("hmmer", "mcf")]
with runner.executing(jobs=2, use_run_cache=False):
    sweep = pool.execute_sweep(specs)
assert [point.source for point in sweep.points] == ["computed"] * 2
print("repro.cpu.system" in sys.modules)
"""


def test_a_pool_parent_loads_the_model_before_it_forks():
    done = _run(_PARALLEL)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]


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
