"""Address mapping between cache-line addresses and DRAM coordinates.

A thin, controller-facing wrapper around
:class:`repro.dram.organization.Organization`.
"""

from __future__ import annotations

from repro.dram.organization import DecodedAddress, Organization


class AddressMapper:
    """Bijective cache-line address <-> (ch, ra, ba, row, col) codec."""

    def __init__(self, organization: Organization):
        self.org = organization
        # decode_into's constants, unpacked in one step per call: the
        # wrap mask, then (shift, mask) per field in Request order.
        fields = [organization.total_lines - 1]
        for name in ("channel", "rank", "bank", "row", "column"):
            fields.extend(organization.layout[name])
        self._decode_fields = tuple(fields)

    def decode(self, line_address: int) -> DecodedAddress:
        return self.org.decode(line_address)

    def encode(self, channel: int, rank: int, bank: int, row: int,
               column: int) -> int:
        return self.org.encode(channel, rank, bank, row, column)

    def decode_into(self, request) -> None:
        """Fill a request's channel/rank/bank/row/column fields.

        Same result as :meth:`Organization.decode` (addresses past
        capacity wrap), written straight into the request: it runs
        once per LLC miss and writeback, so it builds no
        :class:`DecodedAddress`.
        """
        (wrap, ch_shift, ch_mask, ra_shift, ra_mask, ba_shift, ba_mask,
         ro_shift, ro_mask, co_shift, co_mask) = self._decode_fields
        addr = request.line_address & wrap
        request.channel = (addr >> ch_shift) & ch_mask
        request.rank = (addr >> ra_shift) & ra_mask
        request.bank = (addr >> ba_shift) & ba_mask
        request.row = (addr >> ro_shift) & ro_mask
        request.column = (addr >> co_shift) & co_mask
