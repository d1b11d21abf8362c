"""The controller's request decoder against the reference codec."""

from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.address_mapping import AddressMapper
from repro.controller.request import Request, RequestType
from repro.dram.organization import _MAPPINGS, Organization

#: Geometries with every field at least one bit wide, plus the paper's.
GEOMETRIES = (
    dict(channels=2, ranks=2, banks=8, rows=1 << 10, columns=128),
    dict(channels=1, ranks=1, banks=8, rows=1 << 16, columns=128),
    dict(channels=4, ranks=2, banks=16, rows=1 << 6, columns=8),
)


@pytest.mark.parametrize("mapping", sorted(_MAPPINGS))
@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=lambda g: "x".join(map(str, g.values())))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_decode_into_matches_decode(mapping, geometry, data):
    org = Organization(mapping=mapping, **geometry)
    mapper = AddressMapper(org)
    # Up to four times the capacity: addresses past it wrap.
    line = data.draw(st.integers(0, 4 * org.total_lines - 1))
    request = Request(line, RequestType.READ)
    mapper.decode_into(request)
    got = (request.channel, request.rank, request.bank, request.row,
           request.column)
    assert got == astuple(org.decode(line))
