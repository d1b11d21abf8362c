"""Resumable sweep tests (store pre-scan, journal, ``sweep`` CLI).

The guarantees under test:

* a killed-and-resumed sweep re-simulates **zero** checkpointed specs
  and its journal converges to one line per key;
* a journal the sweep opens from a path is closed again;
* ``sweep`` rejects names its ``--kind`` does not know before it
  simulates anything.
"""

import csv
import gc
import io
import json
import os
import warnings

import pytest

from repro.harness import cache as run_cache
from repro.harness import runner
from repro.harness.journal import SweepJournal
from repro.harness.pool import execute_sweep
from repro.harness.spec import RunSpec, Scale

from tests.helpers import journal_sources

TINY = Scale(single_core_instructions=1500, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

SWEEP = [
    RunSpec(kind="single", name=name, mechanism=mech, scale=TINY,
            engine="event")
    for name in ("hmmer", "libquantum", "mcf")
    for mech in ("none", "chargecache")
]

KEYS = [run_cache.cache_key(spec) for spec in SWEEP]


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "store")):
        yield
    runner.clear_memo()


@pytest.fixture
def sim_log(monkeypatch):
    """Log of every actual simulation (cache keys, in call order): one
    entry per spec run alone and per member of a batch group."""
    calls = []
    real_spec, real_batch = runner._execute_spec, runner.run_spec_batch

    def counting_spec(spec):
        calls.append(run_cache.cache_key(spec))
        return real_spec(spec)

    def counting_batch(specs, *args, **kwargs):
        specs = list(specs)
        calls.extend(run_cache.cache_key(spec) for spec in specs)
        return real_batch(specs, *args, **kwargs)

    monkeypatch.setattr(runner, "_execute_spec", counting_spec)
    monkeypatch.setattr(runner, "run_spec_batch", counting_batch)
    return calls


def _journal_lines(path):
    with open(path, encoding="ascii") as fh:
        return fh.readlines()


class TestResumption:
    def test_killed_sweep_resumes_without_resimulating(
            self, tmp_path, sim_log):
        journal_path = str(tmp_path / "w.journal")
        kill_after = 2

        def dying_progress(done, total, point):
            if done >= kill_after:
                raise KeyboardInterrupt("simulated worker death")

        with pytest.raises(KeyboardInterrupt):
            execute_sweep(SWEEP, journal=journal_path,
                          progress=dying_progress)
        first_run = list(sim_log)
        checkpointed = set(journal_sources(SweepJournal(journal_path)))
        assert len(checkpointed) == kill_after

        # Restart: same journal, same store, a fresh process (memo
        # cleared).  The store pre-scan serves what the dead run
        # finished.
        runner.clear_memo()
        sim_log.clear()
        sweep = execute_sweep(SWEEP, journal=journal_path)
        assert [p.spec for p in sweep.points] == SWEEP
        assert sweep.counts()["disk"] == kill_after

        # Zero checkpointed specs re-simulated, and per-key simulation
        # count across both runs is exactly one.
        assert not (set(sim_log) & checkpointed)
        assert sorted(first_run + sim_log) == sorted(KEYS)

        # The journal converged: one line per key, every key present.
        assert set(journal_sources(SweepJournal(journal_path))) == \
            set(KEYS)
        assert len(_journal_lines(journal_path)) == len(KEYS)

    def test_rerun_of_finished_sweep_is_all_store_hits(
            self, tmp_path, sim_log):
        journal_path = str(tmp_path / "w.journal")
        execute_sweep(SWEEP, journal=journal_path)
        runner.clear_memo()
        sim_log.clear()
        sweep = execute_sweep(SWEEP, journal=journal_path)
        assert sim_log == []
        assert sweep.counts()["disk"] == len(SWEEP)
        assert len(_journal_lines(journal_path)) == len(KEYS)


class TestJournalHandle:
    """A journal ``execute_sweep`` opens from a path is its to close."""

    @staticmethod
    def _unclosed_after(sweep):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            sweep()
            gc.collect()
        return [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)]

    def test_closed_after_a_sweep(self, tmp_path):
        path = str(tmp_path / "j.journal")
        assert self._unclosed_after(
            lambda: execute_sweep(SWEEP[:1], journal=path)) == []
        assert len(_journal_lines(path)) == 1

    def test_closed_when_the_sweep_dies(self, tmp_path):
        def dying_progress(done, total, point):
            raise KeyboardInterrupt("simulated worker death")

        def sweep():
            with pytest.raises(KeyboardInterrupt):
                execute_sweep(SWEEP[:1], journal=str(tmp_path / "j"),
                              progress=dying_progress)

        assert self._unclosed_after(sweep) == []

    def test_a_caller_journal_stays_open(self, tmp_path):
        with SweepJournal(str(tmp_path / "j")) as journal:
            execute_sweep(SWEEP[:2], journal=journal)
            execute_sweep(SWEEP[2:4], journal=journal)
            assert len(journal) == 4


class TestCLI:
    def test_sweep_shares_the_main_execution_flags(self):
        from repro.harness import cli
        flags = ["--scale", "tiny", "--engine", "dense", "-j", "2",
                 "--progress", "--store", "/tmp/s"]
        sweep = cli.build_sweep_parser().parse_args(
            ["--workloads", "hmmer"] + flags)
        main = cli.build_parser().parse_args(["fig7a"] + flags)
        for args in (sweep, main):
            assert (args.scale, args.engine, args.jobs, args.progress,
                    args.cache_dir) == (0.05, "dense", 2, True, "/tmp/s")

    @pytest.mark.parametrize("scale", ["0", "-0.5", "huge", "nan", "inf",
                                       "1e308"])
    def test_sweep_rejects_a_bad_scale(self, scale, capsys):
        """``--scale 0`` used to run silently at default scale."""
        from repro.harness import cli
        with pytest.raises(SystemExit) as excinfo:
            cli.build_sweep_parser().parse_args(
                ["--workloads", "hmmer", "--scale", scale])
        assert excinfo.value.code == 2
        assert "--scale" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, names, bad", [
        ("single", ["hmmer", "w1"], "w1"),
        ("alone", ["hmmer", "nosuchapp"], "nosuchapp"),
        ("eight", ["w1", "hmmer"], "hmmer"),
        ("scenario", ["hmmer", "nosuchapp"], "nosuchapp"),
    ])
    def test_sweep_rejects_unknown_names_before_simulating(
            self, kind, names, bad, tmp_path, sim_log, capsys):
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        argv = ["sweep", "--kind", kind, "--workloads"] + names + [
            "--scale", "0.03", "--store", store]
        if kind == "scenario":
            argv += ["--scenario", "c2-r1"]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert repr(bad) in capsys.readouterr().err
        assert sim_log == []
        assert not os.path.exists(store)

    def test_sweep_alone_rejects_mechanisms(self, tmp_path, sim_log,
                                            capsys):
        """Alone runs are the baseline denominator: asking for a
        mechanism is a usage error, not a silent baseline run."""
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--kind", "alone", "--workloads", "mcf",
                      "--mechanisms", "none", "chargecache", "nuat",
                      "--scale", "0.03", "--store", store])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'chargecache'" in err and "'nuat'" in err
        assert sim_log == []
        assert not os.path.exists(store)

    def test_sweep_scenario_requires_a_scenario(self, sim_log, capsys):
        from repro.harness import cli
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--kind", "scenario", "--workloads",
                      "hmmer"])
        assert excinfo.value.code == 2
        assert "--scenario" in capsys.readouterr().err
        assert sim_log == []

    def test_sweep_rerun_computes_nothing(self, tmp_path, capsys):
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        journal = str(tmp_path / "cli.journal")
        argv = ["sweep", "--workloads", "hmmer", "--mechanisms", "none",
                "chargecache", "--scale", "0.03", "--store", store,
                "--journal", journal, "--json"]
        counts = []
        for _ in range(2):
            runner.clear_memo()
            assert cli.main(argv) == 0
            counts.append(json.loads(capsys.readouterr().out)["counts"])
        assert [c["computed"] for c in counts] == [2, 0]
        assert counts[1]["disk"] == 2
        assert len(_journal_lines(journal)) == 2
        assert sorted(os.listdir(store)) == sorted(
            f"{key}.json" for key in journal_sources(SweepJournal(journal)))

    def test_sweep_then_query_the_store_directory(self, tmp_path,
                                                  capsys):
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "libquantum",
                         "--mechanisms", "none", "chargecache",
                         "--scale", "0.03", "--store", store,
                         "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["store"] == store
        assert summary["counts"]["computed"] == 4

        assert cli.main(["query", "--cache-dir", store, "--mechanism",
                         "chargecache", "--json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["count"] == 2
        assert [row["name"] for row in table["rows"]] \
            == ["hmmer", "libquantum"]
        assert {row["standard"] for row in table["rows"]} \
            == {"DDR3-1600"}
        assert all(row["total_ipc"] > 0 for row in table["rows"])

        assert cli.main(["query", "--cache-dir", store, "--limit", "1",
                         "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("kind,name,scenario,mechanism,"
                                   "cc_entries,cc_duration_ms,"
                                   "cc_unbounded,standard")
        assert len(lines) == 2

        assert cli.main(["query", "--cache-dir", store, "--standard",
                         "GDDR5-4000"]) == 0
        assert capsys.readouterr().out.endswith("0 row(s)\n")

    def test_query_mechanism_matches_every_spelling(self, tmp_path,
                                                    capsys):
        """``query --mechanism`` canonicalizes its filter the way the
        store keys runs: any spelling finds the run, inline ChargeCache
        parameters filter on the folded cc_* columns, and a bare
        ``chargecache`` matches every capacity."""
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "--mechanisms",
                         "chargecache+nuat", "chargecache(entries=256)",
                         "--scale", "0.03", "--store", store,
                         "--json"]) == 0
        capsys.readouterr()

        def count(spec):
            assert cli.main(["query", "--cache-dir", store, "--mechanism",
                             spec, "--json"]) == 0
            return json.loads(capsys.readouterr().out)["count"]

        assert count("chargecache+nuat") == 1
        assert count("nuat+chargecache") == 1
        assert count("chargecache(entries=256)") == 1
        assert count("chargecache(entries=64)") == 0
        assert count("chargecache") == 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["query", "--cache-dir", store, "--mechanism",
                      "chargecache(entries=", "--json"])
        assert excinfo.value.code == 2
        assert "--mechanism" in capsys.readouterr().err

    def test_query_mechanism_at_a_default_parameter(self, tmp_path,
                                                    capsys):
        """A parameter written at its default still filters:
        ``chargecache(entries=128)`` names the default-capacity runs
        only, while a bare ``chargecache`` matches every capacity."""
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "--mechanisms",
                         "chargecache", "chargecache(entries=256)",
                         "--scale", "0.03", "--store", store,
                         "--json"]) == 0
        capsys.readouterr()

        def count(spec):
            assert cli.main(["query", "--cache-dir", store, "--mechanism",
                             spec, "--json"]) == 0
            return json.loads(capsys.readouterr().out)["count"]

        assert count("chargecache") == 2
        assert count("chargecache(entries=128)") == 1
        assert count("chargecache(entries=256)") == 1
        assert count("chargecache(entries=64)") == 0

    def test_query_rows_show_the_chargecache_shorthand(self, tmp_path,
                                                       capsys):
        """Runs that differ only in a folded ChargeCache parameter
        carry the same mechanism string: the cc_* columns tell their
        rows apart."""
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "--mechanisms",
                         "chargecache", "chargecache(entries=64)",
                         "chargecache(unbounded=true)", "--scale", "0.03",
                         "--store", store, "--json"]) == 0
        capsys.readouterr()
        assert cli.main(["query", "--cache-dir", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        shorthand = [(row["mechanism"], row["cc_entries"],
                      row["cc_unbounded"]) for row in rows]
        assert shorthand == [("chargecache", None, False),
                             ("chargecache", 64, False),
                             ("chargecache", None, True)]

    def test_query_csv_writes_a_missing_axis_as_an_empty_cell(
            self, tmp_path, capsys):
        """``--csv`` agrees with the table's empty cell and the JSON
        null: a default run's missing scenario, capacity and duration
        used to come out as the text ``None``."""
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "--mechanisms",
                         "chargecache", "chargecache(entries=64)",
                         "--scale", "0.03", "--store", store,
                         "--json"]) == 0
        capsys.readouterr()
        assert cli.main(["query", "--cache-dir", store, "--json"]) == 0
        expect = json.loads(capsys.readouterr().out)["rows"]
        assert cli.main(["query", "--cache-dir", store, "--csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["cc_entries"] for row in rows] == ["", "64"]
        for row, want in zip(rows, expect):
            assert row.keys() == want.keys()
            for column, value in want.items():
                if value is None:
                    assert row[column] == "", column
                else:
                    assert row[column] != "", column
        assert "None" not in {cell for row in rows
                              for cell in row.values()}

    def test_query_rejects_a_negative_limit(self, tmp_path, capsys):
        """``--limit -1`` used to slice off the last row silently."""
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "--mechanisms",
                         "none", "chargecache", "--scale", "0.03",
                         "--store", store, "--json"]) == 0
        capsys.readouterr()
        assert cli.main(["query", "--cache-dir", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 2
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["query", "--cache-dir", store, "--limit", "-1",
                      "--json"])
        assert excinfo.value.code == 2
        assert "--limit" in capsys.readouterr().err
