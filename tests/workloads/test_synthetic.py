"""Unit and property tests for the synthetic trace generators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
from repro.workloads.synthetic import (
    bounded_footprint_lines,
    chase_trace,
    mixed_trace,
    random_trace,
    stream_trace,
    zipf_trace,
)


@pytest.fixture
def org():
    return Organization(channels=1, ranks=1, banks=8, rows=4096,
                        columns=128)


def take(trace, n):
    return list(itertools.islice(trace, n))


class TestStream:
    def test_single_stream_is_sequential(self, org):
        records = take(stream_trace(org, 1 << 20, 0.0, seed=1,
                                    num_streams=1), 10)
        lines = [r.line_address for r in records]
        assert lines == list(range(lines[0], lines[0] + 10))

    def test_two_streams_share_banks(self, org):
        records = take(stream_trace(org, 1 << 22, 0.0, seed=1,
                                    num_streams=2), 4)
        a, b = org.decode(records[0].line_address), \
            org.decode(records[1].line_address)
        assert (a.bank, a.rank) == (b.bank, b.rank)
        assert a.row != b.row  # conflicting rows: the RLTL generator

    def test_stride(self, org):
        records = take(stream_trace(org, 1 << 20, 0.0, seed=1,
                                    num_streams=1, stride_lines=4), 3)
        lines = [r.line_address for r in records]
        assert lines[1] - lines[0] == 4

    def test_write_fraction(self, org):
        records = take(stream_trace(org, 1 << 20, 0.0, seed=1,
                                    write_fraction=0.5), 2000)
        writes = sum(r.is_write for r in records)
        assert 0.4 < writes / len(records) < 0.6

    def test_bad_params(self, org):
        with pytest.raises(ValueError):
            stream_trace(org, 1 << 20, 0.0, 1, num_streams=0)
        with pytest.raises(ValueError):
            next(stream_trace(org, 1 << 20, 0.0, 1, stride_lines=0))


class TestRandom:
    def test_footprint_respected(self, org):
        footprint = 1 << 16  # 1024 lines
        records = take(random_trace(org, footprint, 0.0, seed=1), 5000)
        max_line = max(r.line_address for r in records)
        assert max_line < footprint // 64

    def test_reproducible(self, org):
        a = take(random_trace(org, 1 << 20, 5.0, seed=9), 100)
        b = take(random_trace(org, 1 << 20, 5.0, seed=9), 100)
        assert a == b

    def test_different_seeds_differ(self, org):
        a = take(random_trace(org, 1 << 20, 5.0, seed=1), 100)
        b = take(random_trace(org, 1 << 20, 5.0, seed=2), 100)
        assert a != b

    def test_mean_bubbles(self, org):
        records = take(random_trace(org, 1 << 20, 20.0, seed=1), 5000)
        mean = np.mean([r.bubbles for r in records])
        assert mean == pytest.approx(20.0, rel=0.15)

    def test_zero_bubbles(self, org):
        records = take(random_trace(org, 1 << 20, 0.0, seed=1), 100)
        assert all(r.bubbles == 0 for r in records)


class TestChase:
    def test_all_dependent(self, org):
        records = take(chase_trace(org, 1 << 20, 5.0, seed=1), 100)
        assert all(r.dependent for r in records)
        assert not any(r.is_write for r in records)


class TestZipf:
    def test_skewed_row_popularity(self, org):
        records = take(zipf_trace(org, 1 << 24, 0.0, seed=1, alpha=1.5),
                       5000)
        rows = [org.decode(r.line_address).row for r in records]
        _, counts = np.unique(rows, return_counts=True)
        counts = np.sort(counts)[::-1]
        # The hottest row dominates: > 5x the median popularity.
        assert counts[0] > 5 * np.median(counts)

    def test_alpha_must_exceed_one(self, org):
        with pytest.raises(ValueError):
            zipf_trace(org, 1 << 20, 0.0, seed=1, alpha=1.0)

    def test_addresses_in_range(self, org):
        records = take(zipf_trace(org, 1 << 22, 0.0, seed=1), 2000)
        for r in records:
            d = org.decode(r.line_address)
            assert 0 <= d.row < org.rows


def _constant(line):
    return itertools.repeat(TraceRecord(0, line, False))


class TestMixed:
    def test_interleaves_children(self, org):
        a = _constant(1)
        b = _constant(2)
        records = take(mixed_trace([a, b], [0.5, 0.5], seed=1), 500)
        lines = {r.line_address for r in records}
        assert lines == {1, 2}

    def test_weights_respected(self, org):
        a = _constant(1)
        b = _constant(2)
        records = take(mixed_trace([a, b], [0.9, 0.1], seed=1), 3000)
        share = sum(r.line_address == 1 for r in records) / len(records)
        assert 0.85 < share < 0.95

    def test_bad_weights(self, org):
        with pytest.raises(ValueError):
            mixed_trace([_constant(1)], [1.0, 2.0], seed=1)
        with pytest.raises(ValueError):
            mixed_trace([_constant(1)], [0.0], seed=1)


class TestBoundedFootprint:
    def test_clamps_to_capacity(self, org):
        assert bounded_footprint_lines(org, 1 << 60) == org.total_lines

    @given(st.integers(min_value=64, max_value=1 << 40))
    @settings(max_examples=50)
    def test_always_positive_and_bounded(self, footprint):
        org = Organization(channels=1, ranks=1, banks=8, rows=4096,
                           columns=128)
        lines = bounded_footprint_lines(org, footprint)
        assert 1 <= lines <= org.total_lines


class TestGeneratorContract:
    @pytest.mark.parametrize("factory", [
        lambda org: stream_trace(org, 1 << 20, 3.0, 1),
        lambda org: random_trace(org, 1 << 20, 3.0, 1),
        lambda org: chase_trace(org, 1 << 20, 3.0, 1),
        lambda org: zipf_trace(org, 1 << 22, 3.0, 1),
    ])
    def test_infinite_and_well_formed(self, org, factory):
        records = take(factory(org), 3000)
        assert len(records) == 3000
        for r in records:
            assert r.bubbles >= 0
            assert 0 <= r.line_address < org.total_lines
