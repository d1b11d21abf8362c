"""Trace-kind RunSpecs and the calibrate experiment.

The contract under test: an ingested trace is identified by its
*content hash* (trace_sha256 in the cache key), never by its path
(excluded from the key), so the same bytes are one cached run wherever
the file lives, an edited file is a fresh key, and a second run of the
same trace is answered entirely from the persistent cache.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import experiments, runner
from repro.harness.cache import cache_key
from repro.harness.spec import (
    RunSpec,
    Scale,
    batch_signature,
    spec_from_payload,
)
from repro.harness.runner import run_spec, run_spec_ex, trace_spec
from repro.workloads.ingest import TraceFormatError, trace_file_sha256

from tests.helpers import write_trace

TINY = Scale(single_core_instructions=2000, multi_core_instructions=900,
             warmup_cpu_cycles=500, max_mem_cycles=300_000)


@pytest.fixture
def trace_path(tmp_path):
    # Long enough that the cold pass over distinct lines outlasts the
    # TINY instruction budget — a short looped trace becomes
    # LLC-resident and generates no DRAM traffic after its first pass.
    return write_trace(tmp_path / "stream.trace", n=600, gap=6)


@pytest.fixture(autouse=True)
def _restore_harness_state():
    """Fresh memo and no ambient disk cache: these tests assert on
    *where* results come from (computed/disk) and on execution-time
    errors, both of which a warm cache would mask."""
    runner.clear_memo()
    with runner.executing(use_run_cache=False):
        yield
    runner.clear_memo()


class TestTraceSpec:
    def test_spec_shape(self, trace_path):
        spec = trace_spec(trace_path, "chargecache", TINY)
        assert spec.kind == "trace"
        assert spec.name == "stream"
        assert spec.trace_sha256 == trace_file_sha256(trace_path)
        assert spec.trace_path == os.path.abspath(trace_path)
        assert spec.trace_sha256[:8] in spec.label()

    def test_key_excludes_path_includes_hash(self, trace_path, tmp_path):
        spec = trace_spec(trace_path, "none", TINY)
        payload = spec.key_payload()
        assert "trace_path" not in payload
        assert payload["trace_sha256"] == spec.trace_sha256
        # Same bytes elsewhere -> identical key; different bytes ->
        # different key.
        copy = tmp_path / "copy" / "other-name.trace"
        copy.parent.mkdir()
        copy.write_bytes(open(trace_path, "rb").read())
        moved = trace_spec(str(copy), "none", TINY, name="stream")
        assert cache_key(moved) == cache_key(spec)
        edited = write_trace(tmp_path / "edited.trace", n=65, gap=6)
        assert cache_key(trace_spec(edited, "none", TINY,
                                    name="stream")) != cache_key(spec)

    def test_payload_roundtrip(self, trace_path):
        spec = trace_spec(trace_path, "chargecache", TINY)
        rebuilt = spec_from_payload(spec.key_payload())
        assert rebuilt.trace_path is None       # location is not identity
        assert rebuilt.trace_sha256 == spec.trace_sha256
        assert cache_key(rebuilt) == cache_key(spec)

    def test_trace_fields_are_validated(self, trace_path):
        with pytest.raises(ValueError, match="SHA-256"):
            RunSpec(kind="trace", name="x", scale=TINY)
        with pytest.raises(ValueError, match="SHA-256"):
            RunSpec(kind="trace", name="x", scale=TINY,
                    trace_sha256="abc")
        with pytest.raises(ValueError, match="only meaningful"):
            RunSpec(kind="single", name="x", scale=TINY,
                    trace_sha256="0" * 64)

    def test_batch_signature_groups_by_trace(self, trace_path, tmp_path):
        base = trace_spec(trace_path, "none", TINY)
        cc = trace_spec(trace_path, "chargecache", TINY)
        assert batch_signature(base) == batch_signature(cc)
        other = write_trace(tmp_path / "other.trace", n=12)
        assert batch_signature(trace_spec(other, "none", TINY)) != \
            batch_signature(base)


class TestTraceExecution:
    def test_runs_and_loops(self, trace_path):
        result = run_spec(trace_spec(trace_path, "none", TINY))
        assert result.work_instructions >= TINY.single_core_instructions
        assert result.activations > 0

    def test_second_run_hits_disk_cache(self, trace_path, tmp_path):
        runner.configure_disk_cache(str(tmp_path / "cache"))
        runner.clear_memo()
        spec = trace_spec(trace_path, "none", TINY)
        first, src1 = run_spec_ex(spec)
        assert src1 == "computed"
        runner.clear_memo()            # force the disk layer
        second, src2 = run_spec_ex(trace_spec(trace_path, "none", TINY))
        assert src2 == "disk"
        assert second.total_ipc == pytest.approx(first.total_ipc)

    def test_edited_file_fails_the_old_spec(self, trace_path):
        spec = trace_spec(trace_path, "none", TINY)
        with open(trace_path, "a") as fh:
            fh.write("100000 0x7f00 W\n")
        with pytest.raises(TraceFormatError,
                           match="content hash mismatch"):
            run_spec(spec)

    def test_pathless_spec_cannot_simulate(self, trace_path):
        rebuilt = spec_from_payload(
            trace_spec(trace_path, "none", TINY).key_payload())
        with pytest.raises(ValueError, match="no trace_path"):
            run_spec(rebuilt)

    def test_engine_parity(self, trace_path):
        event = run_spec(trace_spec(trace_path, "none", TINY,
                                    engine="event"))
        dense = run_spec(trace_spec(trace_path, "none", TINY,
                                    engine="dense"))
        assert event.total_ipc == pytest.approx(dense.total_ipc)
        assert event.activations == dense.activations
        assert event.row_hit_rate == pytest.approx(dense.row_hit_rate)

    def test_chargecache_runs_on_traces(self, tmp_path):
        # A ping-pong pattern (conflict every access, short reuse gap)
        # must produce ChargeCache hits through the trace path.
        fixtures = os.path.join(os.path.dirname(__file__), os.pardir,
                                "fixtures", "traces")
        path = os.path.join(fixtures, "pingpong.trace")
        result = run_spec(trace_spec(path, "chargecache", TINY))
        assert result.mechanism_hit_rate > 0.5


class TestTimeScaleSync:
    def test_fingerprint_mirrors_harness_default(self):
        # fingerprint.py keeps a local copy to avoid a workloads ->
        # harness layering inversion; they must never drift.
        from repro.harness.spec import DEFAULT_TIME_SCALE as harness_ts
        from repro.workloads.ingest.fingerprint import (
            DEFAULT_TIME_SCALE as ingest_ts,
        )
        assert ingest_ts == harness_ts


class TestCalibrate:
    def test_end_to_end(self, trace_path):
        result = experiments.run("calibrate", ["libquantum", "hmmer"], TINY,
                                 traces=[trace_path])
        assert result["id"] == "calibrate"
        rows = {(r["workload"], r["kind"]): r for r in result["rows"]}
        assert set(rows) == {("libquantum", "synthetic"),
                             ("hmmer", "synthetic"),
                             ("stream", "trace")}
        for r in result["rows"]:
            assert set(r) == set(experiments._CALIBRATE_COLUMNS)
        assert rows[("libquantum", "synthetic")]["status"] == "ok"
        trace_row = rows[("stream", "trace")]
        assert trace_row["status"] == "ingested"
        assert isinstance(trace_row["sim_row_hit"], float)
        assert result["traces"] == [trace_path]
        assert result["drift"] == []
        # 1 trace x (baseline + chargecache)
        assert result["cache"]["points"] == 2

    def test_two_paths_to_one_file_are_one_point(self, trace_path,
                                                 tmp_path):
        # The path is where the bytes live, not what they are: two
        # copies of one file are one spec, one sweep point and one run.
        copy = tmp_path / "elsewhere" / os.path.basename(trace_path)
        copy.parent.mkdir()
        copy.write_bytes(open(trace_path, "rb").read())
        spec = trace_spec(trace_path, "none", TINY)
        moved = trace_spec(str(copy), "none", TINY)
        assert moved.trace_path != spec.trace_path
        assert moved == spec and hash(moved) == hash(spec)
        assert spec_from_payload(spec.key_payload()) == spec
        result = experiments.run("calibrate", ["hmmer"], TINY,
                                 traces=[trace_path, str(copy)])
        # 1 trace x (baseline + chargecache), however many paths
        assert result["cache"]["points"] == 2
        assert result["cache"]["computed"] == 2
        # ... and one table row, under the first path listed.
        assert [r["kind"] for r in result["rows"]].count("trace") == 1
        assert result["traces"] == [trace_path]

    def test_workload_without_reference_reports_no_ref(self,
                                                       monkeypatch):
        from repro.workloads.ingest import reference
        monkeypatch.delitem(reference.REFERENCE_FINGERPRINTS, "hmmer")
        rows = experiments.run("calibrate", ["hmmer"], TINY,
                               traces=[])["rows"]
        assert rows[0]["status"] == "no-ref"
        assert rows[0]["ref_rltl_1ms"] == ""
        assert rows[0]["rltl_1ms"] > 0.9    # still measured

    def test_declaration_covers_the_experiment(self, trace_path):
        runner.clear_memo()
        experiments.prefetch_experiments(["calibrate"], ["hmmer"], TINY,
                                         traces=[trace_path])
        result = experiments.run("calibrate", ["hmmer"], TINY,
                                 traces=[trace_path])
        assert result["cache"]["computed"] == 0

    def test_fingerprints_ignore_scale(self, trace_path):
        # Synthetic fingerprints are pinned to the reference
        # provenance point, so deltas mean the same at every --scale.
        small = experiments.run("calibrate", ["mcf"], TINY, traces=[])
        other = experiments.run("calibrate", ["mcf"], TINY.scaled(2.0),
                                traces=[])
        assert small["rows"][0] == other["rows"][0]

    def test_renders_and_exports(self, trace_path, tmp_path):
        from repro.harness.export import export_csv
        from repro.harness.report import render_experiment
        result = experiments.run("calibrate", ["hmmer"], TINY,
                                 traces=[trace_path])
        text = render_experiment(result)
        assert "calibrate: fingerprints @" in text
        assert "avg 1ms-RLTL" in text
        csv_text = export_csv(result)
        header = csv_text.splitlines()[0].split(",")
        assert header == list(experiments._CALIBRATE_COLUMNS)
        assert json.dumps(result, default=str)  # JSON-serializable


class TestCLI:
    def test_scale_presets(self):
        from repro.harness.cli import _scale_arg
        assert _scale_arg("tiny") == 0.05
        assert _scale_arg("full") == 1.0
        assert _scale_arg("0.3") == pytest.approx(0.3)
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _scale_arg("huge")
        with pytest.raises(argparse.ArgumentTypeError):
            _scale_arg("-1")

    def test_calibrate_cli(self, trace_path, tmp_path, capsys):
        from repro.harness import cli
        json_path = tmp_path / "cal.json"
        code = cli.main(["calibrate", "--workloads", "hmmer",
                         "--scale", "tiny",
                         "--traces", trace_path,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "calibrate: fingerprints @" in out
        data = json.loads(json_path.read_text())
        kinds = {r["kind"] for r in data["calibrate"]["rows"]}
        assert kinds == {"synthetic", "trace"}

    def test_traces_flag_requires_existing_file(self, tmp_path, capsys):
        from repro.harness import cli
        with pytest.raises(SystemExit):
            cli.main(["calibrate", "--traces",
                      str(tmp_path / "missing.trace")])
        assert "no such file" in capsys.readouterr().err
