"""DRAM geometry and physical-address decoding.

The organization mirrors Table 1 of the paper: 1-2 channels, 1 rank per
channel, 8 banks per rank, 64K rows per bank and an 8 KB row buffer
(128 cache lines of 64 B per row).

Address mapping follows Ramulator's conventions.  The default,
``RoBaRaCoCh``, orders the physical-address bit fields (MSB to LSB) as

    row | bank | rank | column | channel

so consecutive cache lines interleave across channels first, then walk
the columns of one row - the layout the paper's baseline uses.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Supported address mappings.  Field order is MSB -> LSB.
_MAPPINGS = {
    "RoBaRaCoCh": ("row", "bank", "rank", "column", "channel"),
    "RoRaBaChCo": ("row", "rank", "bank", "channel", "column"),
    "ChRaBaRoCo": ("channel", "rank", "bank", "row", "column"),
}


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

    def __init__(self, channels: int = 1, ranks: int = 1, banks: int = 8,
                 rows: int = 64 * 1024, columns: int = 128,
                 line_bytes: int = 64, mapping: str = "RoBaRaCoCh"):
        if mapping not in _MAPPINGS:
            raise ValueError(
                f"unknown mapping {mapping!r}; expected one of {sorted(_MAPPINGS)}")
        self.channels = channels
        self.ranks = ranks
        self.banks = banks
        self.rows = rows
        self.columns = columns
        self.line_bytes = line_bytes
        self.mapping = mapping

        self._bits = {
            "channel": _log2(channels, "channels"),
            "rank": _log2(ranks, "ranks"),
            "bank": _log2(banks, "banks"),
            "row": _log2(rows, "rows"),
            "column": _log2(columns, "columns"),
        }
        # Precompute (shift, mask) for each field, walking LSB -> MSB.
        shift = 0
        #: Field name -> ``(shift, mask)`` of its bits in a line
        #: address (read-only; :class:`AddressMapper` decodes from it).
        self.layout = {}
        for name in reversed(_MAPPINGS[mapping]):
            width = self._bits[name]
            self.layout[name] = (shift, (1 << width) - 1)
            shift += width
        self.address_bits = shift

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
    def from_config(cls, dram_cfg, line_bytes: int = 64) -> "Organization":
        """Build an organization from a :class:`repro.config.DRAMConfig`."""
        return cls(channels=dram_cfg.channels,
                   ranks=dram_cfg.ranks_per_channel,
                   banks=dram_cfg.banks_per_rank,
                   rows=dram_cfg.rows_per_bank,
                   columns=dram_cfg.row_buffer_bytes // line_bytes,
                   line_bytes=line_bytes,
                   mapping=dram_cfg.address_mapping)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Organization({self.channels}ch x {self.ranks}ra x "
                f"{self.banks}ba x {self.rows}rows x {self.columns}cols, "
                f"mapping={self.mapping})")
