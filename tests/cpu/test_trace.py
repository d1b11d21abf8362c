"""Unit tests for trace records."""

import pytest

from repro.cpu.trace import (
    TraceRecord,
    looped,
    trace_from_tuples,
)


class TestRecords:
    def test_from_tuples(self):
        records = trace_from_tuples([(3, 0x10, False), (0, 0x20, True, True)])
        assert records[0] == TraceRecord(3, 0x10, False, False)
        assert records[1] == TraceRecord(0, 0x20, True, True)

    def test_bad_tuple(self):
        with pytest.raises(ValueError):
            trace_from_tuples([(1, 2)])

    def test_looped_repeats(self):
        records = trace_from_tuples([(1, 0x1, False)])
        it = looped(records)
        assert next(it) == next(it)

    def test_looped_empty_rejected(self):
        with pytest.raises(ValueError):
            looped([])
