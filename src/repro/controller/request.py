"""Memory requests exchanged between the cache hierarchy and the
memory controller.
"""

from __future__ import annotations

import enum
import itertools


class RequestType(enum.Enum):
    READ = "read"
    WRITE = "write"


_request_ids = itertools.count()


class Request:
    """One cache-line-sized memory request.

    Attributes:
        line_address: cache-line address (byte address >> 6).
        type: read or write.
        core_id: issuing core (writebacks inherit the evicting core).
        channel/rank/bank/row: decoded DRAM coordinates, filled in by
            the system's address mapper before the request is queued.
        enqueue_cycle: bus cycle the request entered its queue.
        done_cycle: bus cycle the data transfer completed (-1 before).
        needed_act: True when servicing required a row activation (i.e.
            this request was a row miss or conflict).

    A READ's data arrival is reported through its controller's
    ``read_done`` hook; WRITEs are posted and complete at issue.
    """

    __slots__ = ("id", "line_address", "type", "core_id", "channel",
                 "rank", "bank", "row", "enqueue_cycle",
                 "done_cycle", "needed_act")

    def __init__(self, line_address: int, type: RequestType,
                 core_id: int = 0):
        self.id = next(_request_ids)
        self.line_address = line_address
        self.type = type
        self.core_id = core_id
        self.channel = -1
        self.rank = -1
        self.bank = -1
        self.row = -1
        self.enqueue_cycle = -1
        self.done_cycle = -1
        self.needed_act = False

    # ------------------------------------------------------------------

    @property
    def is_write(self) -> bool:
        return self.type is RequestType.WRITE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Request(#{self.id} {self.type.value} line={self.line_address:#x} "
                f"core={self.core_id} ch{self.channel} ra{self.rank} "
                f"ba{self.bank} row{self.row})")


def read_request(line_address: int, core_id: int = 0) -> Request:
    return Request(line_address, RequestType.READ, core_id)


def write_request(line_address: int, core_id: int = 0) -> Request:
    return Request(line_address, RequestType.WRITE, core_id)
