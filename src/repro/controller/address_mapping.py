"""Address mapping between cache-line addresses and DRAM coordinates.

A thin, controller-facing wrapper around
:class:`repro.dram.organization.Organization` that also provides the
helpers workloads and tests use to construct addresses with specific
locality properties (same row, same bank / different row, etc.).
"""

from __future__ import annotations

from typing import Tuple

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

    # ------------------------------------------------------------------
    # Locality helpers (used by synthetic workloads and tests)
    # ------------------------------------------------------------------

    def same_row(self, a: int, b: int) -> bool:
        da, db = self.org.decode(a), self.org.decode(b)
        return (da.channel, da.rank, da.bank, da.row) == \
               (db.channel, db.rank, db.bank, db.row)

    def same_bank(self, a: int, b: int) -> bool:
        da, db = self.org.decode(a), self.org.decode(b)
        return (da.channel, da.rank, da.bank) == (db.channel, db.rank, db.bank)

    def row_conflict_pair(self, channel: int = 0, rank: int = 0,
                          bank: int = 0) -> Tuple[int, int]:
        """Two addresses in the same bank but different rows."""
        a = self.encode(channel, rank, bank, row=0, column=0)
        b = self.encode(channel, rank, bank, row=1, column=0)
        return a, b

    def row_walk(self, channel: int, rank: int, bank: int, row: int):
        """Generator over all column addresses of one row."""
        for col in range(self.org.columns):
            yield self.encode(channel, rank, bank, row, col)

    @property
    def lines_per_row(self) -> int:
        return self.org.columns
