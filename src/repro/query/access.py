"""Read access paths: table scans, index lookups, index range scans.

The paper's availability argument is about *readers*: an index under
construction "is still not available to the transactions to use it as an
access path for retrievals.  Such usage has to be delayed until the
entire index is built" (section 2.2.1).  This module provides the access
paths that become legal at that point, with the locking the paper
assumes:

* data-only locking (section 6.2): the lock protecting a key is the lock
  on the record it came from, which is why IB "can make available the new
  index for reads by transactions without the danger of exposing those
  transactions performing index-only read accesses to uncommitted keys";
* next-key locking on the first key past a range, for serializable range
  scans (phantom protection, [Moha90a]);
* pseudo-deleted keys are invisible to readers but a reader still locks
  them when they bound a range (their deletion may be uncommitted).

Footnote 3 of section 2.2.1 is also implemented as an opt-in: "if we are
ambitious, then we could make the index gradually available for a range
of key values starting from the smallest possible key value ... as the
index is being continuously modified by IB to include higher and higher
key values" -- see :func:`set_gradual_availability` and the
``read_watermark`` checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterator, TYPE_CHECKING

from repro.btree.node import entry_key, entry_rid
from repro.core.descriptor import IndexDescriptor, IndexState
from repro.errors import ReproError
from repro.sim.kernel import Delay
from repro.sim.latch import SHARE
from repro.storage.rid import rid_page

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System
    from repro.txn.transaction import Transaction


class IndexNotAvailableError(ReproError):
    """The index is still being built and cannot serve this read."""


def set_gradual_availability(descriptor: IndexDescriptor,
                             enabled: bool = True) -> None:
    """Enable footnote 3: reads below IB's high-water key during an NSF
    build.  The NSF builder maintains ``descriptor.read_watermark`` (the
    highest key whose insertion has been committed)."""
    descriptor.gradual_reads = enabled


def _check_readable(descriptor: IndexDescriptor, high_key, *,
                    inclusive: bool) -> None:
    """The watermark is IB's highest committed entry: its own key may
    have entries left in the sort, so an ``inclusive`` bound must lie
    below that key, an exclusive one may equal it."""
    if descriptor.state is IndexState.AVAILABLE:
        return
    if getattr(descriptor, "gradual_reads", False):
        watermark = getattr(descriptor, "read_watermark", None)
        frontier = None if watermark is None else entry_key(watermark)
        if frontier is not None and high_key is not None and (
                high_key < frontier
                or not inclusive and high_key == frontier):
            return  # range lies entirely below IB's committed frontier
        raise IndexNotAvailableError(
            f"index {descriptor.name} is built only up to key "
            f"{frontier!r}; requested up to {high_key!r}")
    raise IndexNotAvailableError(
        f"index {descriptor.name} is still being built "
        f"({descriptor.state.value})")


def index_lookup(txn: "Transaction", descriptor: IndexDescriptor,
                 key_value):
    """Generator: all committed records with this key value.

    Returns a list of ``(rid, record)``.  S-locks each qualifying record
    (data-only locking) before reading it, and the record of the first
    entry past the key without reading it.
    """
    _check_readable(descriptor, key_value, inclusive=True)
    system = descriptor.system
    rows, past = yield from _visit_rows(txn, descriptor, key_value,
                                        key_value, inclusive_high=True)
    if past is not None:
        yield from txn.lock(descriptor.table.lock_name(entry_rid(past)),
                            "S")
    if not system.sim.delayed(system.config.tree_visit_cost):
        yield Delay(system.config.tree_visit_cost)
    system.metrics.incr("query.index_lookups")
    key_of = descriptor.key_of
    return [(entry_rid(entry), record) for entry, record in rows
            if key_of(record) == key_value]


def index_range_scan(txn: "Transaction", descriptor: IndexDescriptor,
                     low_key, high_key, *,
                     serializable: bool = True):
    """Generator: committed records with ``low_key <= key < high_key``.

    With ``serializable=True`` the scan takes a next-key lock on the
    first key at/past ``high_key`` so no phantom can commit into the
    range before this transaction ends ([Moha90a]).
    Returns ``[(key_value, rid, record), ...]`` in key order.
    """
    _check_readable(descriptor, high_key, inclusive=False)
    system = descriptor.system
    rows, past = yield from _visit_rows(txn, descriptor, low_key, high_key,
                                        inclusive_high=False)
    if serializable:
        if past is not None:
            lock_name = descriptor.table.lock_name(entry_rid(past))
        else:
            lock_name = ("index-eof", descriptor.name)
        yield from txn.lock(lock_name, "S")
        system.metrics.incr("query.range_next_key_locks")
    cost = system.config.tree_visit_cost * max(1, len(rows) // 8)
    if not system.sim.delayed(cost):
        yield Delay(cost)
    system.metrics.incr("query.range_scans")
    return [(entry_key(entry), entry_rid(entry), record)
            for entry, record in rows]


def _visit_rows(txn: "Transaction", descriptor: IndexDescriptor,
                low_key, high_key, *, inclusive_high: bool):
    """Generator: the row-visiting loop of both index reads.

    Visits the entries with key in [low_key, high_key] /
    [low_key, high_key) in key order: S-locks each entry's record, then
    reads it unless the entry is pseudo-deleted.  Before reading a row
    whose page is not resident it hands that page and the pages of the
    rows still to visit (:meth:`_RangeWalk.row_pages`, off the same
    walk) to :meth:`~repro.storage.buffer.BufferPool.prefetch`, which
    reads the missing ones in parallel, as many as the disk channels
    serve at once.

    Returns ``(rows, past)``: the ``(entry, record)`` pairs read, and the
    first entry past the range (None at the end of the index), which
    this loop neither locks nor reads.
    """
    table = descriptor.table
    pool = descriptor.system.buffer
    pseudo_deleted = descriptor.tree.pseudo_deleted
    walk = _RangeWalk(descriptor, low_key, high_key, inclusive_high)
    rows = []
    for leaf_entries in walk:
        for entry in leaf_entries:
            rid = entry_rid(entry)
            yield from txn.lock(table.lock_name(rid), "S")
            if entry in pseudo_deleted:
                continue  # committed-deleted; lock settled it
            if not pool.resident(table.page_id(rid_page(rid))):
                yield from pool.prefetch(
                    chain.from_iterable(walk.row_pages(entry)))
            record = yield from table.read_latched(rid)
            if record is not None:
                rows.append((entry, record))
    return rows, walk.past


class _RangeWalk:
    """One walk over the entries with key in [low_key, high_key] /
    [low_key, high_key).  Iterating yields, leaf by leaf, the leaf's
    entries in the range, in key order, and leaves the first entry
    beyond in :attr:`past` (None at the end of the index).

    Snapshot-per-leaf iteration, resumed by key: callers suspend between
    two entries (they lock records before trusting what they saw), and a
    leaf that splits meanwhile hands the upper half of the snapshot to a
    new right sibling the chain then leads into.  Entries at or below the
    last composite yielded are therefore skipped on every later leaf.
    """

    __slots__ = ("descriptor", "low_key", "high_key", "_cut", "leaf",
                 "past")

    def __init__(self, descriptor: IndexDescriptor, low_key, high_key,
                 inclusive_high: bool) -> None:
        self.descriptor = descriptor
        self.low_key = low_key
        self.high_key = high_key
        #: the first entry past the range: key above an inclusive high
        #: end, at or above an exclusive one
        self._cut = bisect_right if inclusive_high else bisect_left
        #: the leaf the entries being visited came from
        self.leaf = None
        self.past = None

    def _span(self, entries: list, after) -> tuple[int, int]:
        """``entries[start:end]``: those above ``after`` and in range;
        ``entries[end]``, if any, is the first past the range."""
        start = bisect_right(entries, after)
        if self.high_key is None:
            return start, len(entries)
        end = self._cut(entries, self.high_key, key=entry_key)
        return start, max(start, end)

    def __iter__(self):
        tree = self.descriptor.tree
        if tree.root is None:
            return
        last = self.low_key  # sorts below every entry with key low_key
        leaf, _path = tree._traverse(last, count=False)
        while leaf is not None:
            self.leaf = leaf
            entries = leaf.entries
            start, end = self._span(entries, last)
            past = entries[end] if end < len(entries) else None
            if start < end:
                snapshot = entries[start:end]
                last = snapshot[-1]
                yield snapshot
            if past is not None:
                self.past = past
                return
            leaf = (tree.pages.get(leaf.next_leaf)
                    if leaf.next_leaf is not None else None)

    def row_pages(self, entry) -> Iterator[list]:
        """Generator: the data pages of ``entry``'s row and of the rows
        after it in the range, in visit order (pseudo-deleted entries
        skipped), one list a leaf.  A hint read off the leaves as they
        are now, from the leaf the walk stands on: a split since moved
        entries only rightwards along the chain, so these are the pages
        a fresh descent to ``entry`` would find."""
        descriptor = self.descriptor
        tree = descriptor.tree
        page_id = descriptor.table.page_id
        pseudo_deleted = tree.pseudo_deleted
        pages = [page_id(rid_page(entry_rid(entry)))]
        leaf = self.leaf
        while leaf is not None:
            entries = leaf.entries
            start, end = self._span(entries, entry)
            pages += [page_id(rid_page(entry_rid(later)))
                      for later in entries[start:end]
                      if later not in pseudo_deleted]
            yield pages
            if end < len(entries):
                return
            pages = []
            leaf = (tree.pages.get(leaf.next_leaf)
                    if leaf.next_leaf is not None else None)


def _entries_in_range(descriptor: IndexDescriptor, low_key, high_key, *,
                      inclusive_high: bool):
    """Entries with key in [low_key, high_key] / [low_key, high_key),
    plus the first entry beyond, in key order (one :class:`_RangeWalk`)."""
    walk = _RangeWalk(descriptor, low_key, high_key, inclusive_high)
    for leaf_entries in walk:
        yield from leaf_entries
    if walk.past is not None:
        yield walk.past


def table_scan(txn: "Transaction", table: "Table", predicate=None):
    """Generator: full-scan fallback (what the new index exists to avoid).

    S-locks and returns every matching committed record; charges the full
    sequential-scan I/O cost through the buffer pool.
    """
    system = table.system
    results = []
    page_no = 0
    while page_no < table.page_count:
        upto = min(page_no + system.config.prefetch_pages,
                   table.page_count)
        page_ids = [table.page_id(p) for p in range(page_no, upto)]
        pages = yield from system.buffer.fetch_sequential(page_ids)
        for page in pages:
            page = yield from system.buffer.latch_current(page, SHARE)
            try:
                live = page.live_records()
            finally:
                page.latch.release(system.sim.current)
            for rid, record in live:
                yield from txn.lock(table.lock_name(rid), "S")
                current = yield from table.read_latched(rid)
                if current is None:
                    continue
                if predicate is None or predicate(current):
                    results.append((rid, current))
        page_no = upto
    system.metrics.incr("query.table_scans")
    return results
