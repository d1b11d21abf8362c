"""Highly-Charged Row Address Cache (HCRAC).

A tag-only, set-associative cache of row addresses (paper Section 4.2).
The key is the (rank, bank, row) triple of a row within one channel.
The default organization matches Table 1: 128 entries, 2-way, LRU.

Two implementations:

* :class:`HCRAC` - the hardware-faithful fixed-capacity structure with
  way-stable storage (so the IIC/EC invalidation scheme can address
  entries linearly, exactly as in the paper).
* :class:`UnboundedHCRAC` - an idealised infinite-capacity variant used
  for the "unlimited size" reference lines in Figure 9; it evicts only
  by age.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class HCRAC:
    """Fixed-capacity set-associative tag store with LRU replacement."""

    def __init__(self, entries: int = 128, associativity: int = 2):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        if entries % associativity:
            raise ValueError("entries must be divisible by associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("entries/associativity must be a power of two")
        # Set index and tag of a key: its low bits select the set, the
        # bits above them are the tag.
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        # Way-stable storage: tags[set][way] is None when invalid.
        self._tags: List[List[Optional[int]]] = [
            [None] * associativity for _ in range(self.num_sets)]
        self._stamp: List[List[int]] = [
            [0] * associativity for _ in range(self.num_sets)]
        self._use_counter = 0

    # ------------------------------------------------------------------

    def lookup(self, key: int, touch: bool = True) -> bool:
        """True if ``key`` is present; updates LRU state when ``touch``."""
        set_idx = key & self._set_mask
        tag = key >> self._tag_shift
        tags = self._tags[set_idx]
        if tag not in tags:
            return False
        if touch:
            self._use_counter += 1
            self._stamp[set_idx][tags.index(tag)] = self._use_counter
        return True

    def insert(self, key: int) -> None:
        """Insert ``key``, evicting the LRU way of its set if needed."""
        set_idx = key & self._set_mask
        tag = key >> self._tag_shift
        tags = self._tags[set_idx]
        stamps = self._stamp[set_idx]
        self._use_counter += 1
        if tag in tags:
            # Hit: refresh the stamp (re-insertion of a cached row).
            stamps[tags.index(tag)] = self._use_counter
            return
        # Free way if available, else LRU eviction: the lowest stamp
        # (stamps of valid ways are distinct).
        if None in tags:
            victim = tags.index(None)
        else:
            victim = stamps.index(min(stamps))
        tags[victim] = tag
        stamps[victim] = self._use_counter

    def invalidate_entry(self, entry_index: int) -> bool:
        """Invalidate the physical entry ``entry_index`` (IIC/EC sweep).

        Entries are numbered set-major: ``entry = set * assoc + way``.
        Returns True if a valid entry was cleared.
        """
        if not 0 <= entry_index < self.entries:
            raise IndexError(f"entry {entry_index} out of range")
        set_idx, way = divmod(entry_index, self.associativity)
        if self._tags[set_idx][way] is None:
            return False
        self._tags[set_idx][way] = None
        return True

    def clear(self) -> None:
        for set_idx in range(self.num_sets):
            for way in range(self.associativity):
                self._tags[set_idx][way] = None

    # ------------------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return self.lookup(key, touch=False)

    def __len__(self) -> int:
        """The number of valid entries, counted from the tags."""
        return sum(tag is not None for tags in self._tags for tag in tags)


class UnboundedHCRAC:
    """Infinite-capacity HCRAC: entries expire only by age.

    Models the "unlimited size" reference of Figure 9.  Each key stores
    its insertion cycle; a lookup at cycle ``c`` hits when the entry was
    inserted within the caching duration.
    """

    def __init__(self, duration_cycles: int):
        if duration_cycles < 1:
            raise ValueError("duration must be >= 1 cycle")
        self.duration_cycles = duration_cycles
        self._inserted_at: Dict[int, int] = {}

    def insert(self, key: int, cycle: int) -> None:
        self._inserted_at[key] = cycle

    def lookup(self, key: int, cycle: int) -> bool:
        stamp = self._inserted_at.get(key)
        if stamp is None:
            return False
        if cycle - stamp > self.duration_cycles:
            # Lazy expiry: drop the stale entry.
            del self._inserted_at[key]
            return False
        return True

    def __len__(self) -> int:
        return len(self._inserted_at)
