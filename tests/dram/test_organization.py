"""Unit tests for DRAM geometry and address decoding."""

from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BYTES, DRAMConfig
from repro.controller.request import Request, RequestType
from repro.dram.organization import Organization

#: Geometries with every field at least one bit wide, plus the paper's.
GEOMETRIES = (
    dict(channels=2, ranks=2, banks=8, rows=1 << 10, columns=128),
    dict(channels=1, ranks=1, banks=8, rows=1 << 16, columns=128),
    dict(channels=4, ranks=2, banks=16, rows=1 << 6, columns=8),
)


class TestConstruction:
    def test_paper_geometry(self, paper_org):
        banks = paper_org.channels * paper_org.ranks * paper_org.banks
        assert banks == 8
        capacity = paper_org.total_lines * LINE_BYTES
        assert capacity == 4 * 1024 ** 3  # 4 GB

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Organization(banks=3)

    def test_from_config(self):
        org = Organization.from_config(DRAMConfig(channels=2))
        assert org.channels == 2
        assert org.columns == 128  # 8 KB row / 64 B lines


class TestCodec:
    def test_encode_decode_identity(self, small_org):
        for line in range(small_org.total_lines):
            d = small_org.decode(line)
            assert small_org.encode(*astuple(d)) == line

    def test_decode_fields_in_range(self, small_org):
        for line in range(small_org.total_lines):
            d = small_org.decode(line)
            assert 0 <= d.channel < small_org.channels
            assert 0 <= d.rank < small_org.ranks
            assert 0 <= d.bank < small_org.banks
            assert 0 <= d.row < small_org.rows
            assert 0 <= d.column < small_org.columns

    def test_encode_range_check(self, small_org):
        with pytest.raises(ValueError):
            small_org.encode(0, 0, 0, small_org.rows, 0)

    def test_addresses_wrap(self, small_org):
        line = small_org.total_lines + 5
        assert small_org.decode(line) == small_org.decode(5)

    @given(st.integers(min_value=0, max_value=(1 << 40) - 1))
    @settings(max_examples=200)
    def test_decode_encode_roundtrip_random(self, line):
        org = Organization(channels=2, ranks=1, banks=8, rows=1 << 16,
                           columns=128)
        wrapped = line & (org.total_lines - 1)
        d = org.decode(line)
        assert org.encode(*astuple(d)) == wrapped

    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: "x".join(map(str, g.values())))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_decode_into_matches_decode(self, geometry, data):
        """The controller's in-place request decoder against the
        reference codec."""
        org = Organization(**geometry)
        # Up to four times the capacity: addresses past it wrap.
        line = data.draw(st.integers(0, 4 * org.total_lines - 1))
        request = Request(line, RequestType.READ)
        org.decode_into(request)
        got = (request.channel, request.rank, request.bank, request.row)
        assert got == astuple(org.decode(line))[:4]


class TestMappingProperties:
    def test_robaracoch_consecutive_lines_interleave_channels(self):
        org = Organization(channels=2, banks=8, rows=1 << 16, columns=128)
        a = org.decode(0)
        b = org.decode(1)
        assert a.channel != b.channel

    def test_robaracoch_streams_stay_in_row(self):
        org = Organization(channels=1, banks=8, rows=1 << 16, columns=128)
        decoded = [org.decode(i) for i in range(org.columns)]
        rows = {(d.bank, d.row) for d in decoded}
        assert len(rows) == 1  # first 128 lines sit in one row buffer

    def test_row_stride(self):
        org = Organization(channels=1, banks=8, rows=1 << 16, columns=128)
        stride = org.encode(0, 0, 0, 1, 0)
        a, b = org.decode(0), org.decode(stride)
        assert a.bank == b.bank and b.row == a.row + 1

    def test_bank_index_unique(self, small_org):
        seen = set()
        for line in range(small_org.total_lines):
            d = small_org.decode(line)
            seen.add(small_org.bank_index(d))
        assert seen == set(range(
            small_org.channels * small_org.ranks * small_org.banks))
