"""Batch-vs-serial sweep equivalence and grouping safety.

Satellite guarantees for the batched sweep path:

* a randomized property test — sampled (platform x mechanism-spec)
  grids must produce byte-identical results and identical persistent
  cache contents whether executed as a sweep (batch groups, in-process
  or in pool workers) or one spec at a time through ``run_spec``;
* a grouping guard — :func:`~repro.harness.spec.batch_signature` may
  only merge specs whose cache keys agree on every non-mechanism
  field, so batching can never alias two distinct platform/workload
  cache entries;
* a platform guard — every batch group the figure table declares
  resolves to one mechanism-invariant config, so no group can fail
  ``System.run_batch``'s guard.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.harness import cache as run_cache
from repro.harness import pool, runner
from repro.harness.cache import cache_key, result_to_json
from repro.harness.pool import execute_sweep
from repro.harness.spec import (
    MECHANISM_FIELDS,
    RunSpec,
    Scale,
    batch_signature,
    current_scale,
)

TINY = Scale(single_core_instructions=1500, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "cache")):
        yield
    runner.clear_memo()


#: Mechanism axes sampled by the property test: registry spec strings
#: paired with the cc_* shorthand knobs, mixing capacity variants,
#: the refresh-coupled one (nuat), and compositions.
MECHANISM_AXIS = [
    ("none", {}),
    ("chargecache", {}),
    ("chargecache", {"cc_entries": 64}),
    ("chargecache", {"cc_entries": 512}),
    ("chargecache", {"cc_unbounded": True}),
    ("lldram", {}),
    ("nuat", {}),
    ("chargecache+nuat", {}),
]

#: Platform axes: (kind, name, scenario, extra spec fields).
PLATFORM_AXIS = [
    ("single", "hmmer", None, {}),
    ("single", "libquantum", None, {"seed": 2}),
    ("single", "mcf", None, {"row_policy": "closed"}),
    ("eight", "w1", None, {}),
]


def _sampled_sweep(rng: random.Random, points: int):
    specs = []
    for _ in range(points):
        kind, name, scenario, extra = rng.choice(PLATFORM_AXIS)
        mechanism, cc = rng.choice(MECHANISM_AXIS)
        specs.append(RunSpec(kind=kind, name=name, mechanism=mechanism,
                             scale=TINY, engine="event",
                             scenario=scenario, **extra, **cc))
    return specs


def _assert_matches_serial_reference(sweep, specs, store):
    """Each sweep point equals ``runner.run_spec`` of its spec on a
    cleared memo and a separate store, and both stores hold exactly
    the same content-addressed keys."""
    sweep_keys = set(runner.active_disk_cache().keys())
    runner.clear_memo()
    runner.configure_disk_cache(store)
    reference = [runner.run_spec(spec) for spec in specs]
    assert [p.spec for p in sweep.points] == specs
    for point, result in zip(sweep.points, reference):
        assert result_to_json(point.result) == result_to_json(result), \
            point.spec.label()
    assert sweep_keys == set(runner.active_disk_cache().keys())


def _spy_batches(monkeypatch):
    """Per ``System.run_batch`` call, its configs and the config of
    each ``System.run`` it made."""
    from repro.cpu.system import System
    batches, active = [], []
    run_batch, run = System.run_batch.__func__, System.run

    def spied_run_batch(cls, configs, *args, **kwargs):
        configs = list(configs)
        batch = {"configs": configs, "runs": []}
        batches.append(batch)
        active.append(batch)
        try:
            return run_batch(cls, configs, *args, **kwargs)
        finally:
            active.pop()

    def spied_run(self, *args, **kwargs):
        if active:
            active[-1]["runs"].append(self.config)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(System, "run_batch", classmethod(spied_run_batch))
    monkeypatch.setattr(System, "run", spied_run)
    return batches


@pytest.mark.parametrize("seed", (0, 1))
def test_batched_sweep_is_bit_identical_to_serial(seed, tmp_path,
                                                  monkeypatch):
    specs = _sampled_sweep(random.Random(seed), points=10)
    runner.configure_disk_cache(str(tmp_path / "batched"))
    batches = _spy_batches(monkeypatch)
    batched = execute_sweep(specs, jobs=1)
    assert batches
    for batch in batches:
        # Every variant runs in full, in order, on its own System.
        runs, configs = batch["runs"], batch["configs"]
        assert len(runs) == len(configs)
        assert all(run is cfg for run, cfg in zip(runs, configs))
    _assert_matches_serial_reference(batched, specs,
                                     str(tmp_path / "serial"))


def test_batched_points_warm_a_serial_rerun():
    specs = [RunSpec(kind="single", name="hmmer", mechanism=mech,
                     scale=TINY, engine="event", cc_entries=entries)
             for mech, entries in (("none", None), ("chargecache", 64),
                                   ("chargecache", 256))]
    batched = execute_sweep(specs, jobs=1)
    assert batched.counts()["batched"] == 3
    runner.clear_memo()  # fresh process, same persistent cache
    warm = execute_sweep(specs, jobs=1)
    assert all(p.source == "disk" for p in warm.points)
    assert warm.counts()["batched"] == 0


def test_batch_group_time_is_carried_by_its_first_point():
    """A batch group's wall time is measured once, for the whole group:
    its first point carries it and the other members 0.0, instead of
    each reporting an invented equal share."""
    specs = [RunSpec(kind="single", name="hmmer", mechanism=mech,
                     scale=TINY, engine="event", cc_entries=entries)
             for mech, entries in (("none", None), ("chargecache", 64),
                                   ("chargecache", 256), ("lldram", None),
                                   ("nuat", None))]
    sweep = execute_sweep(specs, jobs=1)
    assert sweep.counts()["batched"] == 5
    assert len({point.batch_group for point in sweep.points}) == 1
    assert [point.seconds > 0 for point in sweep.points] == \
        [True, False, False, False, False]


class TestParallelBatching:
    """Regression: batching must survive ``--jobs > 1``.

    Parallel sweeps used to fall back silently to one simulation per
    point, losing the shared trace tape; now each batch group is the
    unit of pool distribution.
    """

    SPECS = [RunSpec(kind="single", name=name, mechanism=mech,
                     scale=TINY, engine="event", cc_entries=entries)
             for name in ("hmmer", "libquantum")
             for mech, entries in (("none", None), ("chargecache", 64),
                                   ("chargecache", 256))]

    def test_parallel_sweep_keeps_batch_groups(self, tmp_path):
        runner.configure_disk_cache(str(tmp_path / "par"))
        parallel = execute_sweep(self.SPECS, jobs=2)
        counts = parallel.counts()
        assert counts["computed"] == len(self.SPECS)
        assert counts["batched"] == len(self.SPECS)
        # Two workloads -> two batch groups, three variants each.
        groups = {}
        for point in parallel.points:
            groups.setdefault(point.batch_group, []).append(point.spec)
        assert len(groups) == 2
        for members in groups.values():
            assert len(members) == 3
            assert len({batch_signature(s) for s in members}) == 1

    def test_parallel_batched_matches_serial_unbatched(self, tmp_path):
        runner.configure_disk_cache(str(tmp_path / "par"))
        parallel = execute_sweep(self.SPECS, jobs=2)
        _assert_matches_serial_reference(parallel, self.SPECS,
                                         str(tmp_path / "ser"))

    def test_parallel_failure_inside_group_names_the_spec(self,
                                                          tmp_path):
        runner.configure_disk_cache(str(tmp_path / "fail"))
        bad = RunSpec(kind="single", name="no-such-workload",
                      scale=TINY, engine="event")
        with pytest.raises(pool.SweepError) as err:
            execute_sweep(self.SPECS[:3] + [bad], jobs=2)
        assert err.value.spec == bad
        assert "no-such-workload" in str(err.value)


    def test_pool_unavailable_runs_the_units_in_process(
            self, tmp_path, monkeypatch, capsys):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        runner.configure_disk_cache(str(tmp_path / "inproc"))
        sweep = execute_sweep(self.SPECS, jobs=2)
        assert "process pool unavailable" in capsys.readouterr().err
        assert sweep.counts()["batched"] == len(self.SPECS)
        _assert_matches_serial_reference(sweep, self.SPECS,
                                         str(tmp_path / "ser"))

    def test_in_process_group_failure_is_a_sweep_error(self,
                                                       monkeypatch):
        def rejecting(specs, *args, **kwargs):
            raise ValueError("configs differ outside the mechanism")

        monkeypatch.setattr(runner, "run_spec_batch", rejecting)
        with pytest.raises(pool.SweepError) as err:
            execute_sweep(self.SPECS, jobs=1)
        assert err.value.spec == self.SPECS[0]
        assert isinstance(err.value.__cause__, ValueError)


class TestGroupingGuard:
    BASE = dict(kind="single", name="hmmer", scale=TINY, engine="event")

    def test_mechanism_fields_do_not_split_groups(self):
        a = RunSpec(mechanism="none", **self.BASE)
        b = RunSpec(mechanism="chargecache", cc_entries=64,
                    cc_duration_ms=4.0, cc_unbounded=False, **self.BASE)
        assert batch_signature(a) == batch_signature(b)
        assert cache_key(a) != cache_key(b)

    @pytest.mark.parametrize("field,value", [
        ("name", "mcf"),
        ("seed", 9),
        ("engine", "dense"),
        ("row_policy", "closed"),
        ("idle_finished", True),
        ("enable_rltl", True),
    ])
    def test_non_mechanism_fields_split_groups(self, field, value):
        a = RunSpec(mechanism="chargecache", **self.BASE)
        b = RunSpec(mechanism="chargecache",
                    **{**self.BASE, field: value})
        assert batch_signature(a) != batch_signature(b)

    @pytest.mark.parametrize("mechanism,knobs", [
        ("chargecache", {}), ("nuat", {}), ("lldram", {}), ("aldram", {}),
        ("chargecache+nuat", {}), ("chargecache+lldram", {}),
        ("chargecache(entries=256)+nuat", {}),
        ("aldram(temperature=55)", {}), ("lldram(duration_ms=16)", {}),
        ("chargecache", {"cc_entries": 64}),
        ("chargecache", {"cc_duration_ms": 16.0}),
        ("chargecache", {"cc_unbounded": True})],
        ids=lambda v: v if isinstance(v, str) else ",".join(v) or "defaults")
    def test_every_mechanism_spec_shares_the_platform_group(
            self, mechanism, knobs):
        """Any spec string or ChargeCache knob joins the ``none`` point
        of its platform, and the group it forms passes
        ``System.run_batch``'s platform guard."""
        from repro.cpu.system import mechanism_invariant_config
        base = RunSpec(mechanism="none", **self.BASE)
        spec = RunSpec(mechanism=mechanism, **knobs, **self.BASE)
        assert batch_signature(spec) == batch_signature(base)
        assert cache_key(spec) != cache_key(base)
        assert mechanism_invariant_config(runner._spec_config(spec)) \
            == mechanism_invariant_config(runner._spec_config(base))

    def test_signature_covers_every_non_mechanism_key_field(self):
        """Batch grouping never merges specs whose cache keys differ
        on non-mechanism fields — structurally: the signature is the
        cache key's own payload minus exactly MECHANISM_FIELDS."""
        spec = RunSpec(mechanism="chargecache", **self.BASE)
        payload = spec.key_payload()
        signature_fields = set(json.loads(batch_signature(spec)))
        assert signature_fields == set(payload) - set(MECHANISM_FIELDS)

    def test_runner_rejects_mixed_groups(self):
        a = RunSpec(mechanism="none", **self.BASE)
        b = RunSpec(mechanism="chargecache",
                    **{**self.BASE, "name": "mcf"})
        with pytest.raises(ValueError, match="mechanism fields"):
            runner.run_spec_batch([a, b])

    def test_pool_never_groups_across_signatures(self):
        specs = [
            RunSpec(mechanism="none", **self.BASE),
            RunSpec(mechanism="chargecache", **self.BASE),
            RunSpec(mechanism="none", **{**self.BASE, "name": "mcf"}),
            RunSpec(mechanism="chargecache",
                    **{**self.BASE, "name": "mcf"}),
        ]
        sweep = execute_sweep(specs, jobs=1)
        groups = {}
        for point in sweep.points:
            groups.setdefault(point.batch_group, []).append(point.spec)
        assert len(groups) == 2
        for members in groups.values():
            signatures = {batch_signature(s) for s in members}
            assert len(signatures) == 1


def test_declared_batch_groups_pass_the_platform_guard():
    """Every batch group the figure table declares at tiny scale
    resolves to one mechanism-invariant config, so ``System.run_batch``
    accepts it: a sweep never needs a one-at-a-time fallback."""
    from repro.cpu.system import mechanism_invariant_config
    from repro.harness.experiments import FIGURES, declared_specs
    specs = declared_specs(sorted(FIGURES), None,
                           current_scale().scaled(0.05))
    groups = pool._batch_groups(specs)
    assert any(len(group) > 1 for group in groups)
    for group in groups:
        first, *rest = [mechanism_invariant_config(runner._spec_config(s))
                        for s in group]
        assert all(config == first for config in rest), group[0].label()
