"""Regression tests for the `all` command's shared sweep pool.

`all` must collect every experiment's declared specs, dedupe them, and
execute the union through ONE pool: each distinct cache key is
computed at most once per cold run, every experiment's own prefetch is
then served entirely from the memo (zero computed points), and the
exported artifacts are byte-identical to running the experiments
individually.
"""

from __future__ import annotations

import csv
import filecmp
import json
import os

import pytest

from repro.harness import cli, experiments, runner, scenarios
from repro.harness.spec import Scale

#: Experiments exercised by the shared-pool tests.  All of them accept
#: a single-application workload list ("libquantum"), so one
#: ``--workloads`` value is valid across the whole subset.
SUBSET = ("fig3a", "fig7a", "scaling", "standards")

#: Shrunken scenario families (full matrix wall-clock belongs in the
#: CLI/benchmarks, not unit tests).  Like the real families, they
#: share a DDR3 platform so cross-experiment dedupe is exercised.
SMALL_SCALING = ("c1-r1", "c2-r1")
SMALL_STANDARDS = ("c1-r1", "ddr4-2400-c1")

TINY = Scale(single_core_instructions=2000, multi_core_instructions=900,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)


@pytest.fixture(autouse=True)
def _harness_state(monkeypatch):
    """Shrink the matrix, and restore the execution the CLI installs."""
    monkeypatch.setattr(scenarios, "SCALING_SCENARIOS", SMALL_SCALING)
    monkeypatch.setattr(scenarios, "STANDARD_SCENARIOS", SMALL_STANDARDS)
    with runner.executing():
        yield
    runner.clear_memo()


def _cli(args):
    assert cli.main(args) == 0


def _manifest_keys(csv_dir) -> set:
    path = os.path.join(csv_dir, "cache_manifest.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "manifest is empty"
    return {row["cache_key"] for row in rows}


class TestSharedPoolAll:
    def test_all_computes_each_key_once_and_matches_individual_runs(
            self, tmp_path, monkeypatch, capsys):
        subset = {name: cli._EXPERIMENTS[name] for name in SUBSET}
        monkeypatch.setattr(cli, "_EXPERIMENTS", subset)

        cache_all = tmp_path / "cache-all"
        csv_all = tmp_path / "csv-all"
        json_all = tmp_path / "all.json"
        common = ["--workloads", "libquantum", "--scale", "0.03"]
        _cli(["all", *common, "--jobs", "2",
              "--cache-dir", str(cache_all), "--csv", str(csv_all),
              "--json", str(json_all)])
        capsys.readouterr()

        results = json.loads(json_all.read_text())
        assert sorted(results) == sorted(SUBSET)
        # Every experiment was served entirely from the shared
        # prefetch: nothing was recomputed per experiment.
        for name in SUBSET:
            info = results[name]["cache"]
            assert info["computed"] == 0, (
                f"{name} recomputed {info['computed']} points after "
                f"the shared sweep")
            assert info["memory"] == info["points"]

        # Each distinct cache key executed exactly once: the cold
        # cache directory holds one entry per distinct key and nothing
        # else.
        keys = _manifest_keys(csv_all)
        entries = [f for f in os.listdir(cache_all)
                   if f.endswith(".json")]
        assert len(entries) == len(keys)
        assert {f[:-5] for f in entries} == keys

        # Byte-identical exports vs running each experiment alone
        # (fresh memo, separate cold cache, serial pool).
        runner.clear_memo()
        cache_solo = tmp_path / "cache-solo"
        csv_solo = tmp_path / "csv-solo"
        solo_keys = set()
        for name in SUBSET:
            _cli([name, *common, "--jobs", "1",
                  "--cache-dir", str(cache_solo),
                  "--csv", str(csv_solo)])
            # Each run overwrites the manifest; accumulate the union.
            solo_keys |= _manifest_keys(csv_solo)
        capsys.readouterr()
        for name in SUBSET:
            a = os.path.join(csv_all, f"{name}.csv")
            b = os.path.join(csv_solo, f"{name}.csv")
            assert filecmp.cmp(a, b, shallow=False), (
                f"{name}.csv differs between `all` and individual runs")
        # Same work either way: the solo caches cover the same keys.
        assert solo_keys == keys

    def test_warm_all_is_all_hits(self, tmp_path, monkeypatch, capsys):
        subset = {name: cli._EXPERIMENTS[name]
                  for name in ("fig3a", "scaling")}
        monkeypatch.setattr(cli, "_EXPERIMENTS", subset)
        cache_dir = tmp_path / "cache"
        common = ["--workloads", "libquantum", "--scale", "0.03",
                  "--jobs", "2", "--cache-dir", str(cache_dir)]
        _cli(["all", *common])
        capsys.readouterr()
        entries_cold = sorted(os.listdir(cache_dir))

        runner.clear_memo()  # force the disk layer, like a new process
        _cli(["all", *common])
        err = capsys.readouterr().err
        # The shared sweep reports itself, fully served by the cache.
        assert "all (shared pool) [run cache:" in err
        assert " 0 simulated" in err
        assert sorted(os.listdir(cache_dir)) == entries_cold


class TestDeclarations:
    def test_declarations_exist_for_every_sweeping_experiment(self):
        declared = set(experiments.SWEEP_DECLARATIONS)
        assert declared <= set(cli._EXPERIMENTS)
        assert set(cli._EXPERIMENTS) - declared == \
            {"fig6", "table1", "table2"}  # the no-sweep artifacts

    @pytest.mark.parametrize("name,workloads", [
        ("fig3a", ["libquantum"]),
        ("fig7a", ["libquantum"]),
        ("scaling", ["libquantum"]),
        ("standards", ["libquantum"]),
        ("energy", ["libquantum"]),
    ])
    def test_declaration_covers_what_the_experiment_runs(
            self, name, workloads):
        """After prefetching only the declared specs, the experiment
        itself must find every run in the memo — i.e. declarations
        never under-declare."""
        runner.clear_memo()
        experiments.prefetch_experiments([name], workloads, TINY)
        result = cli._EXPERIMENTS[name](workloads, TINY)
        info = result["cache"]
        assert info["computed"] == 0, (
            f"{name} computed {info['computed']} undeclared points")

    def test_declared_specs_dedupe_across_experiments(self):
        """scaling and standards share the DDR3 platforms; the union
        must contain each spec once."""
        specs = experiments.declared_specs(
            ["scaling", "standards"], ["libquantum"], TINY)
        assert len(specs) == len(set(specs))
        scaling = experiments.declared_specs(["scaling"], ["libquantum"],
                                             TINY)
        standards = experiments.declared_specs(["standards"],
                                               ["libquantum"], TINY)
        shared = set(scaling) & set(standards)
        assert shared, "expected the DDR3 rows to be shared"
        assert len(specs) == len(set(scaling) | set(standards))
