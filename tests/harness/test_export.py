"""Tests for CSV export of experiment results."""

import csv
import io

from repro.harness.experiments import run
from repro.harness.export import (
    export_cache_manifest,
    export_csv,
    rows_to_csv,
    write_csv,
)


class TestRowsToCsv:
    def test_basic(self):
        text = rows_to_csv([{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "0.5"]

    def test_missing_keys_blank(self):
        text = rows_to_csv([{"a": 1, "b": 2}, {"a": 3}])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[2] == ["3", ""]

    def test_tuple_values_joined(self):
        text = rows_to_csv([{"r": (4, 8)}])
        assert "4/8" in text

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_explicit_columns(self):
        text = rows_to_csv([{"a": 1, "b": 2}], columns=["b"])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["b"], ["2"]]


class TestExperimentExport:
    def test_table2_roundtrip(self):
        text = export_csv(run("table2"))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "duration_ms"
        assert len(rows) == 6  # header + baseline + 4 durations

    def test_fig6_wide_format(self):
        text = export_csv(run("fig6"))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["time_ns", "bitline_v_full",
                           "bitline_v_partial"]
        assert len(rows) > 20

    def test_scalar_experiment(self):
        result = {"id": "sec6.3", "storage_bytes": 5376,
                  "area_mm2": 0.022, "paper": {"x": 1}}
        text = export_csv(result)
        rows = list(csv.reader(io.StringIO(text)))
        assert "storage_bytes" in rows[0]
        assert "paper" not in rows[0]  # nested dicts dropped

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t2.csv"
        assert write_csv(run("table2"), str(path)) == str(path)
        assert path.read_text().startswith("duration_ms")

    def test_cache_annotation_not_leaked_into_rows_csv(self):
        result = {"id": "fig9",
                  "rows": [{"mode": "single", "hit_rate": 0.4}],
                  "cache": {"points": 1, "disk": 1, "memory": 0,
                            "computed": 0, "jobs": 1,
                            "points_detail": []}}
        text = export_csv(result)
        assert "cache" not in text  # provenance lives in the manifest


class TestCacheManifest:
    RESULTS = {
        "fig9": {"id": "fig9", "rows": [],
                 "cache": {"points": 2, "disk": 1, "memory": 0,
                           "computed": 1, "jobs": 2,
                           "points_detail": [
                               {"label": "single:mcf:chargecache",
                                "source": "disk", "key": "aa" * 32,
                                "engine": "event", "batch_group": ""},
                               {"label": "single:mcf:none",
                                "source": "computed", "key": "bb" * 32,
                                "engine": "event",
                                "batch_group": "deadbeef0123"}]}},
        "table2": {"id": "table2", "rows": []},  # not annotated
    }

    def test_manifest_rows(self):
        rows = list(csv.reader(io.StringIO(
            export_cache_manifest(self.RESULTS))))
        assert rows[0] == ["experiment", "point", "source", "cache_hit",
                           "cache_key", "engine", "batch_group"]
        assert rows[1] == ["fig9", "single:mcf:chargecache", "disk",
                           "True", "aa" * 32, "event", ""]
        assert rows[2] == ["fig9", "single:mcf:none", "computed",
                           "False", "bb" * 32, "event", "deadbeef0123"]
        assert len(rows) == 3  # table2 contributes nothing

    def test_empty_when_nothing_annotated(self):
        assert export_cache_manifest({"table2": self.RESULTS["table2"]}) \
            == ""
