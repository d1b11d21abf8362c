"""DRAM geometry and physical-address decoding.

The organization mirrors Table 1 of the paper: 1-2 channels, 1 rank per
channel, 8 banks per rank, 64K rows per bank and an 8 KB row buffer
(128 cache lines of 64 B per row).

Addresses map as Ramulator's ``RoBaRaCoCh``: the physical-address bit
fields (MSB to LSB) are

    row | bank | rank | column | channel

so consecutive cache lines interleave across channels first, then walk
the columns of one row - the layout the paper's baseline uses.  It is
the only mapping: no figure varies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (BANKS_PER_RANK, LINE_BYTES, RANKS_PER_CHANNEL,
                          ROW_BUFFER_BYTES)

#: The address fields, LSB -> MSB.
_FIELDS = ("channel", "column", "rank", "bank", "row")


def _log2(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class DecodedAddress:
    """Physical address decomposed into DRAM coordinates."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class Organization:
    """DRAM geometry plus a bijective physical-address codec.

    Addresses are cache-line addresses: byte address >> 6.  The codec
    is exercised heavily, so the bit offsets are precomputed once.
    """

    def __init__(self, channels: int = 1, ranks: int = RANKS_PER_CHANNEL,
                 banks: int = BANKS_PER_RANK, rows: int = 64 * 1024,
                 columns: int = ROW_BUFFER_BYTES // LINE_BYTES):
        self.channels = channels
        self.ranks = ranks
        self.banks = banks
        self.rows = rows
        self.columns = columns

        sizes = {"channel": channels, "rank": ranks, "bank": banks,
                 "row": rows, "column": columns}
        # Precompute (shift, mask) for each field, walking LSB -> MSB.
        shift = 0
        #: Field name -> ``(shift, mask)`` of its bits in a line address.
        self.layout = {}
        for name in _FIELDS:
            width = _log2(sizes[name], name + "s")
            self.layout[name] = (shift, (1 << width) - 1)
            shift += width
        self.address_bits = shift
        # decode_into's constants, unpacked in one step per call: the
        # wrap mask, then (shift, mask) per field in Request order.
        fields = [self.total_lines - 1]
        for name in ("channel", "rank", "bank", "row"):
            fields.extend(self.layout[name])
        self._decode_fields = tuple(fields)

    # ------------------------------------------------------------------

    @property
    def total_lines(self) -> int:
        """Total number of cache lines in the address space."""
        return 1 << self.address_bits

    def decode(self, line_address: int) -> DecodedAddress:
        """Decode a cache-line address into DRAM coordinates.

        Addresses beyond the modelled capacity wrap around, which lets
        synthetic workloads use arbitrary 64-bit addresses.
        """
        addr = line_address & (self.total_lines - 1)
        fields = {}
        for name, (shift, mask) in self.layout.items():
            fields[name] = (addr >> shift) & mask
        return DecodedAddress(**fields)

    def decode_into(self, request) -> None:
        """Fill a request's channel/rank/bank/row fields.

        Same result as :meth:`decode` (addresses past capacity wrap),
        written straight into the request: it runs once per LLC miss
        and writeback, so it builds no :class:`DecodedAddress`.  The
        column is not written: nothing downstream of the LLC reads it.
        """
        (wrap, ch_shift, ch_mask, ra_shift, ra_mask, ba_shift, ba_mask,
         ro_shift, ro_mask) = self._decode_fields
        addr = request.line_address & wrap
        request.channel = (addr >> ch_shift) & ch_mask
        request.rank = (addr >> ra_shift) & ra_mask
        request.bank = (addr >> ba_shift) & ba_mask
        request.row = (addr >> ro_shift) & ro_mask

    def encode(self, channel: int, rank: int, bank: int, row: int,
               column: int) -> int:
        """Inverse of :meth:`decode`; returns a cache-line address."""
        values = {"channel": channel, "rank": rank, "bank": bank,
                  "row": row, "column": column}
        addr = 0
        for name, (shift, mask) in self.layout.items():
            value = values[name]
            if value < 0 or value > mask:
                raise ValueError(f"{name}={value} out of range (max {mask})")
            addr |= value << shift
        return addr

    def bank_index(self, decoded: DecodedAddress) -> int:
        """Flat index of the (channel, rank, bank) triple."""
        return ((decoded.channel * self.ranks) + decoded.rank) * self.banks \
            + decoded.bank

    @classmethod
    def from_config(cls, dram_cfg) -> "Organization":
        """Build an organization from a :class:`repro.config.DRAMConfig`."""
        return cls(channels=dram_cfg.channels, rows=dram_cfg.rows_per_bank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Organization({self.channels}ch x {self.ranks}ra x "
                f"{self.banks}ba x {self.rows}rows x {self.columns}cols)")
