"""Tests for report rendering and the CLI plumbing."""

import json

import pytest

from repro.harness import experiments
from repro.harness.cli import build_parser, main
from repro.harness.report import (
    format_percent,
    format_table,
    render_experiment,
)


class TestFormatting:
    def test_percent(self):
        assert format_percent(0.086) == "8.6%"
        assert format_percent(0.00235, digits=2) == "0.24%"

    def test_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 0.125)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_table_title(self):
        text = format_table(("x",), [(1,)], title="demo")
        assert text.splitlines()[0] == "demo"


class TestRenderers:
    def test_generic_renderer(self):
        result = {"id": "fig9", "rows": [
            {"mode": "single", "entries": 128, "hit_rate": 0.38}]}
        text = render_experiment(result)
        assert "fig9" in text and "128" in text

    def test_fig6_renderer(self):
        result = experiments.run("fig6")
        assert render_experiment(result).splitlines()[0] == (
            "fig6: bitline transients (model tRCD headroom 4.42 ns, "
            "tRAS headroom 9.46 ns; paper: 4.5 / 9.6 ns)")

    def test_fig6_renders_the_paper_values_of_its_result(self):
        """The renderer holds no copy of Fig 6's paper values."""
        result = dict(experiments.run("fig6"))
        result["paper"] = dict(result["paper"], trcd_reduction_ns=1.25,
                               tras_reduction_ns=2.5)
        assert "paper: 1.25 / 2.5 ns" in render_experiment(result)

    def test_sec63_renderer(self):
        result = {
            "id": "sec6.3", "storage_bytes": 5376, "area_mm2": 0.022,
            "area_fraction_of_llc": 0.0024, "average_power_mw": 0.15,
            "power_fraction_of_llc": 0.0023, "access_rate_per_s": 1e7,
            "paper": {"storage_bytes": 5376, "area_mm2": 0.022,
                      "area_fraction_of_llc": 0.0024,
                      "average_power_mw": 0.149,
                      "power_fraction_of_llc": 0.0023}}
        text = render_experiment(result)
        assert "5376" in text


class TestCacheAnnotation:
    INFO = {"points": 4, "disk": 3, "memory": 1, "computed": 0,
            "jobs": 2,
            "points_detail": [
                {"label": "single:mcf:none", "source": "disk"}]}

    def test_annotation_line(self):
        from repro.harness.report import render_cache_annotation
        text = render_cache_annotation(self.INFO)
        assert "run cache: 4/4 points were hits" in text
        assert "jobs=2" in text

    def test_rendered_artifact_is_cache_state_independent(self):
        """The rendered table must diff clean across cache states
        (verify recipe: engine parity via stdout diff), so the
        provenance note never lands in render_experiment output."""
        result = {"id": "fig9", "rows": [{"mode": "single",
                                          "entries": 128,
                                          "hit_rate": 0.38}]}
        plain = render_experiment(result)
        annotated = render_experiment(dict(result, cache=self.INFO))
        assert plain == annotated
        assert "run cache" not in annotated

    def test_render_cache_annotation_empty(self):
        from repro.harness.report import render_cache_annotation
        assert render_cache_annotation(None) == ""
        assert render_cache_annotation({}) == ""


class TestCLI:
    @pytest.fixture(autouse=True)
    def _restore_harness_state(self):
        """Every main() call installs a whole execution (that is its
        job as a process entry point); restore the previous one so later
        tests never touch the default ~/.cache directory."""
        from repro.harness import runner
        with runner.executing():
            yield
        runner.clear_memo()
    def test_main_calls_never_leak_execution(self, tmp_path, monkeypatch,
                                             capsys):
        """Each main() installs one whole execution, so a bare call
        after a flag-laden one is back on every default."""
        from repro.harness import runner
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert main(["table2", "--engine", "dense", "--jobs", "3",
                     "--no-cache"]) == 0
        assert runner.workload_spec("mcf").engine == "dense"
        assert runner.active_disk_cache() is None
        assert main(["table2"]) == 0
        assert runner.workload_spec("mcf").engine == "event"
        assert runner.execution.jobs is None
        assert runner.execution.progress is None
        assert runner.active_disk_cache().root == str(tmp_path / "default")
        assert main(["table2", "--cache-dir", str(tmp_path / "cc")]) == 0
        assert runner.active_disk_cache().root == str(tmp_path / "cc")
        capsys.readouterr()

    def test_parser_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.experiment == "table2"

    def test_parser_execution_flags(self):
        args = build_parser().parse_args(
            ["fig9", "--jobs", "4", "--cache-dir", "/tmp/x",
             "--no-cache", "--progress"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True
        assert args.progress is True

    def test_main_jobs_and_cache_flags(self, tmp_path, capsys):
        cache_dir = tmp_path / "cc"
        argv = ["fig3a", "--workloads", "hmmer", "--scale", "0.02",
                "--jobs", "2", "--cache-dir", str(cache_dir),
                "--csv", str(tmp_path / "csv")]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert "run cache: 0/1" in out.err  # cold: simulated
        assert list(cache_dir.glob("*.json"))  # persisted
        manifest = (tmp_path / "csv" / "cache_manifest.csv").read_text()
        assert "single:hmmer:none" in manifest
        # A second CLI pass over the same cache dir is all hits, and
        # the rendered artifact on stdout is byte-identical.
        from repro.harness import runner
        runner.clear_memo()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "run cache: 1/1" in warm.err
        assert warm.out == out.out

    def test_main_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cc"
        assert main(["fig3a", "--workloads", "hmmer", "--scale", "0.02",
                     "--no-cache", "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_main_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "paper_trcd_ns" in out

    def test_main_json_dump(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["fig6", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "fig6" in data

    def test_main_csv_dump(self, tmp_path, capsys):
        out = tmp_path / "csvs"
        assert main(["table2", "--csv", str(out)]) == 0
        assert (out / "table2.csv").read_text().startswith("duration_ms")

    def test_main_rejects_a_json_path_in_a_missing_folder(
            self, tmp_path, monkeypatch, capsys):
        """Checked before any entry runs, not after all of them."""
        monkeypatch.setattr(experiments, "run", _must_not_run)
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--json", str(tmp_path / "missing" / "x.json")])
        assert excinfo.value.code == 2
        assert "--json" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_main_rejects_a_csv_path_that_is_a_file(
            self, below, tmp_path, monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(experiments, "run", _must_not_run)
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--csv", str(taken / below)])
        assert excinfo.value.code == 2
        assert "--csv" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("an experiment ran before the export check")
