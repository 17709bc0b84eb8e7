"""B+-tree page layouts, and the one layout of an index entry.

Index pages hold ``<key value, RID>`` entries (section 1.1: a key value is
"the concatenation of the indexed columns' values"), each one flat tuple
``(*key_value, rid)`` ordered by key value, then RID.  The sort, the merge
and every C ``bisect`` compare it one level deep, and the key tuple is the
search sentinel: ``(k,)`` sorts below every ``(k, rid)``.  The bulk load
and IB put the sort's own tuples in the leaves.  The paper's 1-bit
*pseudo-delete* flag (section 2.1.2: "A 1-bit flag is associated with
every key in the index to indicate whether the key is pseudo deleted or
not") is membership in the tree's one ``pseudo_deleted`` set of entries.
A unique index keeps at most one entry per key value (pseudo-deleted or
not).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Optional

from repro.metrics import MetricsRegistry
from repro.sim.latch import Latch
from repro.storage.rid import format_rid

#: A composite key, and a leaf entry: ``(*key_value, rid)``.
CompositeKey = tuple

#: an entry's key value: every field but the last (a new tuple)
entry_key = itemgetter(slice(None, -1))
#: an entry's RID: its last field
entry_rid = itemgetter(-1)


def make_entry(key_value: tuple, rid: int) -> CompositeKey:
    """The entry of ``key_value`` in the record at ``rid``."""
    return (*key_value, rid)


def format_entry(entry: CompositeKey) -> str:
    """``(key value, rid)`` as messages print it, the rid as
    ``(page,slot)``."""
    return f"({entry_key(entry)!r}, {format_rid(entry_rid(entry))})"


class IndexPage:
    """Base class for leaf and branch pages of one index tree."""

    __slots__ = ("page_no", "latch")

    def __init__(self, page_no: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.page_no = page_no
        self.latch = Latch("index", page_no, metrics=metrics)


class LeafPage(IndexPage):
    """A leaf: sorted entries plus the next-leaf chain pointer."""

    __slots__ = ("entries", "next_leaf", "capacity")

    def __init__(self, page_no: int, capacity: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(page_no, metrics=metrics)
        self.entries: list[CompositeKey] = []
        self.next_leaf: Optional[int] = None
        self.capacity = capacity

    # -- searching ---------------------------------------------------------

    def position(self, composite: CompositeKey) -> int:
        """Insertion point for ``composite`` among the sorted entries."""
        return bisect_left(self.entries, composite)

    def find_exact(self, composite: CompositeKey) -> Optional[CompositeKey]:
        """The entry equal to ``composite``, if present."""
        entries = self.entries
        pos = bisect_left(entries, composite)
        if pos < len(entries) and entries[pos] == composite:
            return entries[pos]
        return None

    def find_key_value(self, key_value: tuple) -> Optional[CompositeKey]:
        """First entry with this key value (for unique-index checks):
        the key tuple sorts below every entry that extends it."""
        entries = self.entries
        pos = bisect_left(entries, key_value)
        if pos < len(entries) and entry_key(entries[pos]) == key_value:
            return entries[pos]
        return None

    # -- properties ------------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Leaf {self.page_no} n={len(self.entries)} "
                f"next={self.next_leaf}>")


class BranchPage(IndexPage):
    """An internal page: separators and child page numbers.

    ``children[i]`` covers composites < ``separators[i]``;
    ``children[-1]`` covers the rest.  So
    ``len(children) == len(separators) + 1``.
    """

    __slots__ = ("separators", "children", "capacity")

    def __init__(self, page_no: int, capacity: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(page_no, metrics=metrics)
        self.separators: list[CompositeKey] = []
        self.children: list[int] = []
        self.capacity = capacity

    def child_for(self, composite: CompositeKey) -> tuple[int, int]:
        """(child page number, child slot) covering ``composite``.

        A separator equals the lowest composite of the child to its right,
        so an exact match routes right: ``bisect_right`` semantics.
        """
        slot = bisect_right(self.separators, composite)
        return self.children[slot], slot

    @property
    def is_full(self) -> bool:
        return len(self.children) > self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Branch {self.page_no} fanout={len(self.children)}>"
