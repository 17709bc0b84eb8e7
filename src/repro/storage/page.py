"""Slotted data pages.

Records of a table live in fixed-capacity slotted pages (section 1.1 "Data
Storage Model").  Each page carries a Page-LSN -- the LSN of the last log
record describing a change to the page -- which is how ARIES redo decides
whether a logged change is already present (repeat-history test), and an
S/X latch providing physical consistency (section 1.1 footnote 2).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PageFullError, RecordNotFoundError
from repro.metrics import MetricsRegistry
from repro.sim.latch import Latch
from repro.storage.rid import SLOT_BITS, PageId


class Record:
    """One table record: a tuple of column values.

    Records are immutable; an update replaces the record in its slot (the
    paper's update-in-place with before/after images in the log record).
    One is built per insert and per redo, so it is one slot written
    through its descriptor, not a frozen dataclass.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple) -> None:
        _set_values(self, values)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Record is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Record:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Record(values={self.values!r})"

    def project(self, column_indexes: tuple[int, ...]) -> tuple:
        """Concatenated key-column values (section 1.1: a key value is the
        concatenation of the indexed columns' values)."""
        return tuple(self.values[i] for i in column_indexes)


_set_values = Record.values.__set__


class DataPage:
    """A slotted page holding up to ``capacity`` records."""

    __slots__ = ("page_id", "capacity", "slots", "page_lsn", "latch",
                 "_live", "_free_hint")

    def __init__(self, page_id: PageId, capacity: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.page_id = page_id
        self.capacity = capacity
        self.slots: list[Optional[Record]] = [None] * capacity
        self.page_lsn = 0
        self.latch = Latch("data", page_id, metrics=metrics)
        #: maintained live-record count and lowest-possibly-free slot
        #: hint: free_slot/live_count/is_full run on every insert of the
        #: preload and workload hot paths, and the former O(capacity)
        #: scans showed up in the wall-clock profiles.
        self._live = 0
        self._free_hint = 0

    # -- slot operations (physical, no logging -- callers log) ------------

    def put(self, slot: int, record: Record) -> None:
        """Place ``record`` in ``slot`` (insert or redo of insert)."""
        if not 0 <= slot < self.capacity:
            self._out_of_range(slot)
        if self.slots[slot] is None:
            self._live += 1
        self.slots[slot] = record

    def clear(self, slot: int) -> None:
        """Empty ``slot`` (delete or undo of insert)."""
        if not 0 <= slot < self.capacity:
            self._out_of_range(slot)
        if self.slots[slot] is not None:
            self._live -= 1
        self.slots[slot] = None
        if slot < self._free_hint:
            self._free_hint = slot

    def get(self, slot: int) -> Record:
        record = self.peek(slot)
        if record is None:
            raise RecordNotFoundError(
                f"no record at {self.page_id} slot {slot}")
        return record

    def peek(self, slot: int) -> Optional[Record]:
        if not 0 <= slot < self.capacity:
            self._out_of_range(slot)
        return self.slots[slot]

    def free_slot(self) -> Optional[int]:
        """Lowest empty slot, or None when the page is full.

        Amortized O(1): the scan starts at the hint (every slot below it
        is known occupied) and parks the hint on the slot it returns, so
        the fill-a-page-left-to-right pattern never rescans.
        """
        slots = self.slots
        for index in range(self._free_hint, self.capacity):
            if slots[index] is None:
                self._free_hint = index
                return index
        self._free_hint = self.capacity
        return None

    def live_records(self) -> list[tuple[int, Record]]:
        """All occupied slots as ``(rid, record)`` in slot order."""
        base = self.page_id.page_no << SLOT_BITS
        return [(base | index, record)
                for index, record in enumerate(self.slots)
                if record is not None]

    @property
    def live_count(self) -> int:
        return self._live

    @property
    def is_full(self) -> bool:
        return self._live >= self.capacity

    def _out_of_range(self, slot: int) -> None:
        # the accessors test the range inline: they run on every write
        raise PageFullError(f"slot {slot} out of range for {self.page_id} "
                            f"(capacity {self.capacity})")

    # -- crash modelling ----------------------------------------------------

    def clone(self) -> "DataPage":
        """Deep copy of the page *content* for the stable disk image.

        The clone gets a fresh latch: latches are volatile state and do not
        survive a crash.
        """
        twin = DataPage(self.page_id, self.capacity)
        twin.slots = self.slots.copy()  # records are immutable
        twin.page_lsn = self.page_lsn
        twin._live = self._live
        twin._free_hint = self._free_hint
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DataPage {self.page_id} lsn={self.page_lsn} "
                f"live={self.live_count}/{self.capacity}>")
