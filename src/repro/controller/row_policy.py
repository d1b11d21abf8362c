"""Row-buffer management policies (paper Section 3).

* **Open-row** keeps a row open after column accesses; it is closed only
  when a conflicting request forces a precharge.  Best for single-core
  workloads with high row-buffer locality (the paper's single-core
  configuration).
* **Closed-row** proactively precharges a bank once no queued request
  hits the open row, so the next (likely conflicting) activation does
  not pay the precharge on its critical path.  Best for multi-core
  workloads dominated by bank conflicts (the paper's 8-core
  configuration).
"""

from __future__ import annotations


class RowPolicy:
    """Decides whether to precharge after servicing a column command."""

    name = "abstract"
    closes_rows = True   # False: never asked, as it never precharges

    def wants_precharge_after(self, request, read_queue, write_queue) -> bool:
        raise NotImplementedError


class OpenRowPolicy(RowPolicy):
    """Leave rows open; precharge only on demand (conflicts)."""

    name = "open"
    closes_rows = False

    def wants_precharge_after(self, request, read_queue, write_queue) -> bool:
        return False


class ClosedRowPolicy(RowPolicy):
    """Precharge once the request buffer holds no more hits to the row.

    Mirrors the paper's description: "the closed-row policy proactively
    closes the active row after servicing all row-hit requests in the
    request buffer".
    """

    name = "closed"

    def wants_precharge_after(self, request, read_queue, write_queue) -> bool:
        key = (request.rank, request.bank)
        row = request.row
        for _, queued in read_queue.by_bank.get(key, ()):
            if queued.row == row:
                return False
        for _, queued in write_queue.by_bank.get(key, ()):
            if queued.row == row:
                return False
        return True


def make_row_policy(name: str) -> RowPolicy:
    if name == "open":
        return OpenRowPolicy()
    if name == "closed":
        return ClosedRowPolicy()
    raise ValueError(f"unknown row policy {name!r}")
