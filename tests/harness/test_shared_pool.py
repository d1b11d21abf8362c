"""Regression tests for the `all` command's shared sweep pool.

`all` must collect every figure-table entry's declared specs, dedupe
them, and execute the union through ONE pool: each distinct cache key
is computed at most once per cold run, every entry's own sweep is
then served entirely from the memo (zero computed points), and the
exported artifacts are byte-identical to running the entries
individually.  The tests run `all` over a monkeypatched subset of
`experiments.FIGURES`.
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


def _only(monkeypatch, names):
    """Make `all` (and the CLI's choices) cover just ``names``."""
    subset = {name: experiments.FIGURES[name] for name in names}
    monkeypatch.setattr(experiments, "FIGURES", subset)


def _known(name):
    """One workload per mode entry ``name`` knows (an application for
    "single", a mix for "eight"); None for entries that take none."""
    modes = experiments.FIGURES[name].modes
    return [w for mode, w in (("single", "libquantum"), ("eight", "w1"))
            if mode in modes] or None


def _manifest_keys(csv_dir) -> set:
    path = os.path.join(csv_dir, "cache_manifest.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "manifest is empty"
    return {row["cache_key"] for row in rows}


class TestSharedPoolAll:
    def test_all_computes_each_key_once_and_matches_individual_runs(
            self, tmp_path, monkeypatch, capsys):
        _only(monkeypatch, SUBSET)

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
        _only(monkeypatch, ("fig3a", "scaling"))
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


class TestWorkloadsAcrossEntries:
    """`all --workloads` gives each entry the names its modes know."""

    SUBSET = ("fig3a", "fig3b", "fig9", "scaling", "calibrate", "sec63")

    def test_all_runs_each_entry_on_the_names_it_knows(
            self, tmp_path, monkeypatch, capsys):
        _only(monkeypatch, self.SUBSET)
        trace = experiments.bundled_fixture_traces()[0]
        out = tmp_path / "all.json"
        csv_dir = tmp_path / "csv"
        assert cli.main(["all", "--workloads", "hmmer", "w1",
                         "--scale", "0.03", "--no-cache",
                         "--traces", trace, "--json", str(out),
                         "--csv", str(csv_dir)]) == 0
        capsys.readouterr()
        results = json.loads(out.read_text())
        assert sorted(results) == sorted(self.SUBSET)
        assert [r["workload"] for r in results["fig3a"]["rows"]] == \
            ["hmmer", "AVG"]
        assert [r["workload"] for r in results["fig3b"]["rows"]] == \
            ["w1", "AVG"]
        assert {r["mode"] for r in results["fig9"]["rows"]} == \
            {"single", "eight"}
        assert results["scaling"]["workloads"] == ["hmmer", "w1"]
        synthetic = [r["workload"] for r in results["calibrate"]["rows"]
                     if r["kind"] == "synthetic"]
        assert synthetic == ["hmmer"]
        written = {f for f in os.listdir(csv_dir) if f != "cache_manifest.csv"}
        assert written == {f"{name}.csv" for name in self.SUBSET}

    def test_entry_that_knows_no_name_is_skipped(self, monkeypatch,
                                                 capsys):
        _only(monkeypatch, ("fig3a", "fig3b"))
        assert cli.main(["all", "--workloads", "hmmer", "--scale", "0.03",
                         "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "fig3b: skipped" in captured.err
        assert "fig3a" in captured.out and "fig3b" not in captured.out

    @pytest.mark.parametrize("argv,named", [
        (["all", "--workloads", "hmmer", "bogus"], ("all", "'bogus'")),
        (["fig7b", "--workloads", "hmmer"], ("fig7b", "'hmmer'")),
        (["calibrate", "--workloads", "w1"], ("calibrate", "'w1'")),
    ], ids=["all", "fig7b", "calibrate"])
    def test_unknown_name_is_a_usage_error(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--scale", "0.03", "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for word in named:
            assert word in err

    def test_workloads_flag_without_names_is_a_usage_error(self, capsys):
        """``--workloads`` with no names used to skip every entry and
        exit 0 having run nothing."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig7a", "--workloads", "--no-cache"])
        assert exc.value.code == 2
        assert "--workloads" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ("table1", "table2", "fig6", "sec63"))
    def test_workloads_warns_on_an_entry_that_takes_none(self, name,
                                                          capsys):
        assert cli.main([name, "--workloads", "mcf", "--scale", "0.03",
                         "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert f"warning: --workloads is ignored by {name} " \
               f"(honoured by: " in err
        assert "fig7a" in err and name + "," not in err


class TestDeclarations:
    def test_declarations_exist_for_every_sweeping_experiment(self):
        no_sweep = {name for name, figure in experiments.FIGURES.items()
                    if figure.sweep is None}
        assert no_sweep == {"fig6", "table1", "table2"}  # no-sweep artifacts

    @pytest.mark.parametrize("name", sorted(
        name for name, figure in experiments.FIGURES.items()
        if figure.sweep is not None))
    def test_declaration_covers_what_the_experiment_runs(self, name):
        """After prefetching only the declared specs, the entry itself
        must find every run in the memo — i.e. declarations never
        under-declare."""
        workloads = _known(name)
        runner.clear_memo()
        experiments.prefetch_experiments([name], workloads, TINY)
        result = experiments.run(name, workloads, TINY)
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
