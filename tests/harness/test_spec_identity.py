"""One simulation, one spec: the shared ``all`` pool never simulates a
point twice under two spellings, and every spelling of one run builds
the same spec.

A point's identity is everything that decides its result: the
resolved :class:`~repro.config.SimulationConfig`, the per-core
(application, seed) streams the trace builder is asked for (an
ingested file's content hash for trace runs), the RLTL probe flags and
the memory-cycle cap.  Two declared specs with one identity would be
two cache keys, and two simulations, for one result.
"""

from collections import defaultdict
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.harness import experiments, runner, scenarios
from repro.harness.cache import cache_key
from repro.harness.spec import RunSpec, Scale, spec_from_payload
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
    rltl = (spec.enable_rltl,
            spec.scale.time_scale if spec.enable_rltl else None)
    return cfg, tuple(streams), rltl, spec.scale.max_mem_cycles


def test_every_declared_simulation_has_one_spec(monkeypatch):
    specs = experiments.declared_specs(list(experiments.FIGURES),
                                       scale=TINY)
    groups = defaultdict(list)
    for spec in specs:
        groups[_identity(spec, monkeypatch)].append(spec.label())
    duplicates = [labels for labels in groups.values() if len(labels) > 1]
    assert duplicates == []
    assert len(groups) == len(specs)


# ----------------------------------------------------------------------
# Spellings of one run
# ----------------------------------------------------------------------

#: A fixed code fingerprint: keys compare specs, not sources.
FINGERPRINT = "0" * 64

#: chargecache parameter -> (inline name, RunSpec field, default).
CC_PARAMS = {"entries": ("entries", "cc_entries", 128),
             "duration": ("duration_ms", "cc_duration_ms", 1.0),
             "unbounded": ("unbounded", "cc_unbounded", False)}


@st.composite
def runs(draw):
    """One simulation, as a plain tuple: equal tuples are one run."""
    mode = draw(st.sampled_from(("single", "eight")))
    name = draw(st.sampled_from(("mcf", "hmmer") if mode == "single"
                                else ("w1", "w2")))
    terms = draw(st.frozensets(st.sampled_from(
        ("chargecache", "nuat", "lldram", "aldram"))))
    cc = {}
    if "chargecache" in terms:
        cc["unbounded"] = draw(st.booleans())
        if not cc["unbounded"]:
            cc["entries"] = draw(st.sampled_from((128, 64, 256)))
        cc["duration"] = draw(st.sampled_from((1.0, 4.0, 16.0)))
    own_policy = draw(st.booleans())
    seed = draw(st.sampled_from((1, 2)))
    return (mode, name, terms, tuple(sorted(cc.items())), own_policy,
            seed)


@st.composite
def spellings(draw, run):
    """A RunSpec naming ``run``: any term order, each chargecache
    parameter inline or in its ``cc_*`` field (a default one also
    left out), the paper kind or its scenario, and the platform's row
    policy left out or written."""
    mode, name, terms, cc, own_policy, seed = run
    cc = dict(cc)
    fields = {"name": name, "seed": seed}
    inline = []
    for param, value in cc.items():
        spelled, field, default = CC_PARAMS[param]
        where = draw(st.sampled_from(
            ("inline", "field", "omit") if value == default
            else ("inline", "field")))
        if where == "inline":
            inline.append(f"{spelled}={str(value).lower()}")
        elif where == "field":
            fields[field] = value
    written = []
    for term in draw(st.permutations(sorted(terms))):
        if term == "chargecache" and inline:
            term += f"({','.join(draw(st.permutations(inline)))})"
        written.append(term)
    fields["mechanism"] = "+".join(written) or "none"
    platform = scenarios.platform(mode)
    if own_policy:
        fields["row_policy"] = "closed" if platform.row_policy == "open" \
            else "open"
    elif draw(st.booleans()):
        fields["row_policy"] = platform.row_policy
    if draw(st.booleans()):
        return RunSpec(kind="scenario", scenario=platform.name, **fields)
    return RunSpec(kind=mode, **fields)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spec_equality_is_key_equality(data):
    """Two spellings are equal specs exactly when they name one run,
    and exactly then share a cache key; a spec is its own fixed
    point under ``replace`` and the stored payload."""
    run_a = data.draw(runs())
    run_b = data.draw(st.one_of(st.just(run_a), runs()))
    a = data.draw(spellings(run_a))
    b = data.draw(spellings(run_b))
    assert (a == b) == (run_a == run_b)
    assert (a == b) == (cache_key(a, fingerprint=FINGERPRINT)
                        == cache_key(b, fingerprint=FINGERPRINT))
    if a == b:
        assert hash(a) == hash(b)
        assert a.label() == b.label()
    assert replace(a) == a
    assert spec_from_payload(a.key_payload()) == a
