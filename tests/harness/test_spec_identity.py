"""One simulation, one spec: the shared ``all`` pool never simulates a
point twice under two spellings.

A point's identity is everything that decides its result: the
resolved :class:`~repro.config.SimulationConfig`, the per-core
(application, seed) streams the trace builder is asked for (an
ingested file's content hash for trace runs), the RLTL probe flags and
the memory-cycle cap.  Two declared specs with one identity would be
two cache keys, and two simulations, for one result.
"""

from collections import defaultdict

from repro.harness import experiments, runner
from repro.harness.spec import Scale
from repro.workloads import mixes

TINY = Scale().scaled(0.05)  # the CLI's --scale tiny


def _identity(spec, monkeypatch):
    cfg = runner._spec_config(spec)
    if spec.kind == "trace":
        streams = [("trace", spec.trace_sha256)]
    else:
        streams = []
        monkeypatch.setattr(
            mixes, "make_trace",
            lambda name, org, seed=1: streams.append((name, seed)))
        runner._spec_traces(spec, cfg)
    return (cfg, tuple(streams), runner._spec_rltl(spec),
            spec.scale.max_mem_cycles)


def test_every_declared_simulation_has_one_spec(monkeypatch):
    specs = experiments.declared_specs(list(experiments.FIGURES),
                                       scale=TINY)
    groups = defaultdict(list)
    for spec in specs:
        groups[_identity(spec, monkeypatch)].append(spec.label())
    duplicates = [labels for labels in groups.values() if len(labels) > 1]
    assert duplicates == []
    assert len(groups) == len(specs)
