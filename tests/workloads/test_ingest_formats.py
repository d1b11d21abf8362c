"""External-trace and gem5-stats parsers: format contract tests.

The malformed-input sweep pins the *exact* error text: ingestion
failures must point at the offending file and line, so a corrupted
multi-gigabyte trace fails with a grep-able location instead of a
generic ValueError deep in normalization.
"""

import math
import os

import pytest

from repro.workloads.ingest import (
    MemTraceRecord,
    TraceFormatError,
    iter_mem_trace,
    read_gem5_stats,
    read_mem_trace,
    write_mem_trace,
)

from tests.helpers import tiny_trace, write_trace

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "fixtures", "traces")


class TestMemTraceParsing:
    def test_reads_what_write_wrote(self, tmp_path):
        records = tiny_trace(16)
        path = write_trace(tmp_path / "t.trace", records)
        assert read_mem_trace(path) == records

    def test_decimal_and_hex_addresses(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("5 4096 R\n6 0x1040 W\n")
        assert read_mem_trace(str(path)) == [
            MemTraceRecord(5, 4096, False),
            MemTraceRecord(6, 0x1040, True),
        ]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\n  \n1 0x40 R\n# tail\n")
        assert len(read_mem_trace(str(path))) == 1

    def test_equal_cycles_are_legal(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("7 0x0 R\n7 0x40 W\n")
        assert [r.cycle for r in read_mem_trace(str(path))] == [7, 7]

    def test_streaming_iterator_is_lazy(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1 0x0 R\n0 0x40 R\n")  # line 2 is bad
        it = iter_mem_trace(str(path))
        assert next(it) == MemTraceRecord(1, 0, False)
        with pytest.raises(TraceFormatError):
            next(it)

    def test_bundled_fixtures_parse(self):
        for name in ("streaming", "pingpong", "hotrow", "scattered"):
            records = read_mem_trace(f"{FIXTURES}/{name}.trace")
            assert len(records) >= 500
            cycles = [r.cycle for r in records]
            assert cycles == sorted(cycles)


class TestMalformedTraces:
    """Every rejection names the file, the line, and the precise
    reason."""

    def _err(self, tmp_path, text):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as info:
            read_mem_trace(str(path))
        return path, info.value

    def test_truncated_line(self, tmp_path):
        path, err = self._err(tmp_path, "1 0x40 R\n2 0x80\n")
        assert str(err) == (f"{path}:2: expected '<cycle> <address> "
                            f"<R|W>', got 2 field(s): '2 0x80'")
        assert (err.path, err.line_no) == (str(path), 2)

    def test_too_many_fields(self, tmp_path):
        _, err = self._err(tmp_path, "1 0x40 R W\n")
        assert "got 4 field(s)" in str(err)

    def test_bad_cycle(self, tmp_path):
        path, err = self._err(tmp_path, "one 0x40 R\n")
        assert str(err) == f"{path}:1: bad cycle 'one'"

    def test_negative_cycle(self, tmp_path):
        _, err = self._err(tmp_path, "-3 0x40 R\n")
        assert "bad cycle '-3' (must be non-negative)" in str(err)

    def test_bad_hex_address(self, tmp_path):
        path, err = self._err(tmp_path, "1 0xZZ R\n")
        assert str(err) == f"{path}:1: bad address '0xZZ'"

    def test_bad_op(self, tmp_path):
        path, err = self._err(tmp_path, "1 0x40 X\n")
        assert str(err) == f"{path}:1: bad op 'X' (expected R or W)"

    def test_lowercase_op_rejected(self, tmp_path):
        _, err = self._err(tmp_path, "1 0x40 r\n")
        assert "bad op 'r'" in str(err)

    def test_non_monotonic_cycles(self, tmp_path):
        path, err = self._err(tmp_path, "9 0x0 R\n8 0x40 R\n")
        assert str(err) == f"{path}:2: non-monotonic cycle 8 after 9"

    def test_empty_file(self, tmp_path):
        path, err = self._err(tmp_path, "")
        assert str(err) == f"{path}: no records"
        assert err.line_no is None

    def test_comments_only_is_empty(self, tmp_path):
        _, err = self._err(tmp_path, "# nothing here\n\n")
        assert err.reason == "no records"

    def test_error_is_a_value_error(self, tmp_path):
        # Callers that guard with ValueError keep working.
        path = tmp_path / "bad.trace"
        path.write_text("x\n")
        with pytest.raises(ValueError):
            read_mem_trace(str(path))


class TestGem5Stats:
    def test_bundled_fixture_first_snapshot(self):
        stats = read_gem5_stats(f"{FIXTURES}/gem5_stats.txt")
        assert stats["system.cpu.numCycles"] == 4_000_000
        assert stats["system.mem_ctrls.readBursts"] == 90_000
        # Percent values come back as fractions.
        assert stats["system.mem_ctrls.readRowHitRate"] == \
            pytest.approx(0.70)

    def test_snapshot_selection(self):
        last = read_gem5_stats(f"{FIXTURES}/gem5_stats.txt", snapshot=-1)
        assert last["system.cpu.numCycles"] == 8_000_000

    def test_markerless_dump_is_one_snapshot(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("sim_ticks 100\nnumCycles 50\n")
        assert read_gem5_stats(str(path)) == \
            {"sim_ticks": 100.0, "numCycles": 50.0}

    def test_nan_value(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("a nan\nb 1\n")
        stats = read_gem5_stats(str(path))
        assert math.isnan(stats["a"])

    def test_bad_value(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("sim_ticks banana\n")
        with pytest.raises(TraceFormatError) as info:
            read_gem5_stats(str(path))
        assert str(info.value) == \
            f"{path}:1: bad stat value 'banana' for 'sim_ticks'"

    def test_snapshot_out_of_range(self):
        with pytest.raises(TraceFormatError,
                           match=r"snapshot 5 out of range "
                                 r"\(2 snapshot\(s\) in file\)"):
            read_gem5_stats(f"{FIXTURES}/gem5_stats.txt", snapshot=5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="no statistics"):
            read_gem5_stats(str(path))

    def test_empty_snapshot(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("---------- Begin Simulation Statistics ----\n"
                        "---------- End Simulation Statistics   ----\n")
        with pytest.raises(TraceFormatError,
                           match="empty statistics snapshot"):
            read_gem5_stats(str(path))


class TestWriter:
    def test_write_returns_count_and_hex(self, tmp_path):
        path = tmp_path / "w.trace"
        n = write_mem_trace(str(path),
                            [MemTraceRecord(3, 4096, True)])
        assert n == 1
        assert path.read_text() == "3 0x1000 W\n"
