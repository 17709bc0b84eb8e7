"""Heap tables: the record manager.

Implements the data-page side of the paper's Figure 1 (forward processing)
and Figure 2 (rollback): every record change is one :meth:`Table.write`,
which

1. X-latches the target data page,
2. determines the *visibility* of any index currently being built (SF's
   ``Target-RID < Current-RID`` test) by asking the maintenance hook,
3. modifies the record, writes the log record **including the count of
   visible indexes** (section 3.1: "Additional information is required in
   the log record for a data page operation.  This will be the count of
   the visible indexes"), and updates the Page-LSN,
4. unlatches,
5. lets the maintenance hook update the visible indexes (directly or via
   the side-file).

Undo handlers re-run the same shape with Figure 2's count comparison
delegated to the maintenance hook.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, TYPE_CHECKING

from repro.errors import RecordNotFoundError, StorageError
from repro.sim.kernel import Acquire, Delay
from repro.sim.latch import EXCLUSIVE, SHARE
from repro.storage.page import DataPage, Record
from repro.storage.rid import SLOT_BITS, SLOT_MASK, PageId, format_rid
from repro.wal.manager import ROW_IMAGE, ROW_IMAGES, ROW_VISIBLE_SHIFT
from repro.wal.records import HEADER_SIZE, OP_SIZE, LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System
    from repro.txn.transaction import Transaction


class _NullSnapshot:
    """Empty visibility decision (no indexes)."""

    count = 0
    direct: list = []
    sf_routed: list = []


class NullMaintenance:
    """Maintenance hook used before any index exists.

    The real hook (:class:`repro.core.maintenance.IndexMaintenance`) is
    installed when the first index descriptor is created.
    """

    def visible_count(self, txn, rid):
        return 0

    def prepare(self, txn, rid, old, new):
        return _NullSnapshot()

    def on_undo(self, txn, log_record, rid, old_record, new_record):
        return
        yield  # pragma: no cover


class Table:
    """One heap table: a file of slotted pages plus its indexes."""

    def __init__(self, system: "System", name: str,
                 columns: Sequence[str],
                 page_capacity: Optional[int] = None) -> None:
        self.system = system
        self.name = name
        self.columns = tuple(columns)
        self.page_capacity = page_capacity or system.config.page_capacity
        if not 0 < self.page_capacity < 1 << SLOT_BITS:
            raise ValueError(
                f"page_capacity {self.page_capacity} of {name!r} must be in "
                f"[1, {1 << SLOT_BITS}): a RID keeps the slot in its low "
                f"{SLOT_BITS} bits")
        self.page_count = 0
        #: one PageId per page, handed out by page_id()
        self._page_ids: list[PageId] = []
        #: name of the table-level lock (IX for updaters, S/X for quiesce)
        self.table_lock_name = ("table", name)
        #: Index descriptors in creation order.  Section 3.1 footnote 6:
        #: "the number of indexes can only increase while update
        #: transactions are active".
        self.indexes: list = []
        self.maintenance = NullMaintenance()
        self._register_operations()

    # -- naming ------------------------------------------------------------

    def page_id(self, page_no: int) -> PageId:
        page_ids = self._page_ids
        while len(page_ids) <= page_no:
            page_ids.append(PageId(self.name, len(page_ids)))
        return page_ids[page_no]

    def lock_name(self, rid: int) -> tuple:
        """Data-only lock name for a record (covers its index keys too)."""
        return ("rec", self.name, rid)

    def column_indexes(self, columns: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.columns.index(c) for c in columns)
        except ValueError as exc:
            raise StorageError(f"unknown column in {columns!r}") from exc

    # -- logging ---------------------------------------------------------------

    def log_payload(self, rid: int, values: Optional[tuple],
                    old_values: Optional[tuple] = None,
                    snapshot=_NullSnapshot, origin: Optional[tuple] = None,
                    *, undo: bool = True) -> tuple[Any, int, int]:
        """The payload, row word and logged size of one heap log record.

        Every heap record -- insert, delete, update, their CLRs
        (``undo=False``: redo-only) and a replica's applied writes
        (``origin``) -- is built here, read back at the ``H_*`` positions:
        ``values`` is the image the redo half puts (``None``: it clears
        the slot), ``old_values`` the image an undo restores.  The row
        word holds the slot and visible count (``ROW_*``), so the payload
        is only the image(s); a side-file-routed or replica write keeps
        the whole tuple.  Sized as the halves would be apart: each its
        tag, the table name and the RID, the redo half the page capacity
        and its image, the undo half both images.
        """
        half = OP_SIZE + len(self.name) + 16
        images = 0
        if values is not None:
            images = 8 * (len(values) or 1)
        size = HEADER_SIZE + half + 8 + images
        if undo:
            if old_values is not None:
                images += 8 * (len(old_values) or 1)
            size += half + images
        row = snapshot.count << ROW_VISIBLE_SHIFT | rid & SLOT_MASK
        if snapshot.sf_routed or origin is not None:
            return (self.name, rid, values, old_values, snapshot.count,
                    tuple(snapshot.sf_routed), origin), row, size
        if old_values is None:
            return values, row | ROW_IMAGE << SLOT_BITS, size
        return (values, old_values), row | ROW_IMAGES << SLOT_BITS, size

    # -- forward processing ---------------------------------------------------

    def insert(self, txn: "Transaction", values: Sequence):
        """Generator: insert a record append-style; returns its RID.

        The table's IX lock (NSF's quiesce, section 2.2.1, waits for it),
        then a free slot of the last page, its lock taken conditionally
        under the latch; a full page or a held lock extends the file."""
        locks, sim = self.system.locks, self.system.sim
        if locks.request(txn, self.table_lock_name, "IX") is None:
            yield from locks.wait(txn)
        record = Record(tuple(values))
        while True:
            if self.page_count == 0:
                page = yield from self._allocate_page()
            else:
                last = self.page_count - 1
                page = self._resident(last) \
                    or (yield from self._fetch_page(last))
            if not sim.acquired(page.latch, EXCLUSIVE):
                yield Acquire(page.latch, EXCLUSIVE)
            slot = page.free_slot()
            granted = False
            if slot is not None:
                rid = page.page_id.page_no << SLOT_BITS | slot
                granted = locks.request(txn, self.lock_name(rid), "X",
                                        conditional=True)
            page.latch.release(sim.current)
            if granted:
                break
            yield from self._allocate_page()
        yield from self.write(txn, rid, record, page=page, occupied=False)
        return rid

    def insert_at(self, txn: "Transaction", rid: int, values: Sequence):
        """Generator: insert at a specific RID (slot-reuse scenarios).

        Used to reproduce the paper's section 2.2.3 example where T2
        inserts a record "at the same location (RID R)" after T1's
        rollback freed it.
        """
        yield from txn.lock(self.table_lock_name, "IX")
        record = Record(tuple(values))
        granted = yield from txn.lock(self.lock_name(rid), "X")
        assert granted
        yield from self.write(txn, rid, record, occupied=False)
        return rid

    def delete(self, txn: "Transaction", rid: int):
        """Generator: delete the record at ``rid``; returns the old record."""
        yield from txn.lock(self.table_lock_name, "IX")
        granted = yield from txn.lock(self.lock_name(rid), "X")
        assert granted
        return (yield from self.write(txn, rid, None))

    def update(self, txn: "Transaction", rid: int, new_values: Sequence):
        """Generator: replace the record at ``rid``; returns (old, new)."""
        yield from txn.lock(self.table_lock_name, "IX")
        new_record = Record(tuple(new_values))
        granted = yield from txn.lock(self.lock_name(rid), "X")
        assert granted
        old_record = yield from self.write(txn, rid, new_record,
                                           occupied=True)
        return old_record, new_record

    def write(self, txn: "Transaction", rid: int, new: Optional[Record],
              page: Optional[DataPage] = None,
              origin: Optional[tuple] = None,
              occupied: Optional[bool] = None):
        """Generator: Figure 1 for one slot -- the one data-page change of
        forward processing, a replica's applied writes included.

        The caller holds the record's X and the table's IX lock, and
        passes ``page`` when it has it.  Under one X latch: peek the
        ``old`` record, let the maintenance hook decide for ``(old, new)``
        (``None``: no record), put or clear, log with the visible count
        under the operations :data:`_HEAP_OPS` names; then maintain the
        indexes.  ``occupied`` is what the slot must hold (``False``
        nothing, ``True`` a record, ``None`` either; a clear needs one);
        ``origin`` tags a replica's write.  Returns ``old``.
        """
        sim = self.system.sim
        if page is None:
            page = self._resident(rid >> SLOT_BITS) \
                or (yield from self._fetch_page(rid >> SLOT_BITS))
        if not sim.acquired(page.latch, EXCLUSIVE):
            yield Acquire(page.latch, EXCLUSIVE)
        slot = rid & SLOT_MASK
        try:
            old = page.peek(slot)
            if old is None:
                if new is None or occupied:
                    raise RecordNotFoundError(
                        f"no record at {format_rid(rid)} of {self.name!r}"
                        + (f" (writer, origin_lsn = {origin})"
                           if origin else ""))
            elif occupied is False:
                raise StorageError(f"slot {format_rid(rid)} is occupied")
            redo_op, undo_op, counter = \
                _HEAP_OPS[old is not None, new is not None]
            snapshot = self.maintenance.prepare(txn, rid, old, new)
            if new is None:
                page.clear(slot)
                values = None
            else:
                page.put(slot, new)
                values = new.values
            payload, row, size = self.log_payload(
                rid, values, None if old is None else old.values, snapshot,
                origin)
            lsn = txn.log(
                RecordKind.UPDATE, page_id=page.page_id,
                redo=(redo_op, payload), undo=(undo_op, payload), size=size,
                row=row)
            self.system.buffer.mark_dirty(page, lsn)
        finally:
            page.latch.release(sim.current)
        if not sim.delayed(self.system.config.record_op_cost):
            yield Delay(self.system.config.record_op_cost)
        self.system.metrics.incr(
            counter if origin is None else _APPLIED[redo_op])
        if snapshot.direct:
            yield from self.maintenance.apply_direct(txn, snapshot)
        return old

    def read(self, txn: "Transaction", rid: int):
        """Generator: S-lock and read one record."""
        granted = yield from txn.lock(self.lock_name(rid), "S")
        assert granted
        page = self._resident(rid >> SLOT_BITS) \
            or (yield from self._fetch_page(rid >> SLOT_BITS))
        if not self.system.sim.acquired(page.latch, SHARE):
            yield Acquire(page.latch, SHARE)
        try:
            record = page.get(rid & SLOT_MASK)
        finally:
            page.latch.release(self.system.sim.current)
        return record

    def read_latched(self, rid: int):
        """Generator: latch-only read (no lock) -- what IB uses to verify
        record state during unique-violation checks (section 2.2.3)."""
        sim = self.system.sim
        page = self._resident(rid >> SLOT_BITS) \
            or (yield from self._fetch_page(rid >> SLOT_BITS))
        if not sim.acquired(page.latch, SHARE):
            yield Acquire(page.latch, SHARE)
        try:
            record = page.peek(rid & SLOT_MASK)
        finally:
            page.latch.release(sim.current)
        return record

    # -- page management ---------------------------------------------------------

    def _resident(self, page_no: int) -> Optional[DataPage]:
        """A buffer hit by a plain call, else None: ``page =
        self._resident(n) or (yield from self._fetch_page(n))``."""
        if 0 <= page_no < self.page_count:
            page_ids = self._page_ids
            return self.system.buffer.hit(
                page_ids[page_no] if page_no < len(page_ids)
                else self.page_id(page_no))
        return None

    def _fetch_page(self, page_no: int):
        """The buffer pool's generator for an existing page of this
        table: ``page = yield from self._fetch_page(n)``."""
        if not 0 <= page_no < self.page_count:
            raise RecordNotFoundError(
                f"{self.name} has no page {page_no}")
        return self.system.buffer.ensure_page(
            self.page_id(page_no), self.page_capacity)

    def _allocate_page(self):
        page_no = self.page_count
        page = yield from self.system.buffer.new_page(
            self.page_id(page_no), self.page_capacity)
        self.page_count += 1
        self.system.metrics.incr("heap.pages_allocated")
        return page

    # -- audit access (not part of the simulation; no latching) --------------------

    def audit_records(self) -> Iterator[tuple[int, Record]]:
        """Every live record, reading through the buffer pool's frames and
        falling back to disk.  For verification code only."""
        for page_no in range(self.page_count):
            pid = self.page_id(page_no)
            page = self.system.buffer.resident_page(pid)
            if page is None:
                page = self.system.disk.read_page(pid)
            if page is None:
                continue
            yield from page.live_records()

    # -- recovery operations -----------------------------------------------------

    def _register_operations(self) -> None:
        ops = self.system.log.operations
        if ops.knows("heap.put"):
            return  # one registration per system, shared by all tables
        ops.register("heap.put", redo=_reject_redo)
        ops.register("heap.clear", redo=_reject_redo)
        for undo_op in ("heap.insert", "heap.delete", "heap.update"):
            ops.register(undo_op, redo=_reject_redo, undo=_undo)


#: Field positions of the one payload every ``heap.*`` operation reads
#: (:meth:`Table.log_payload`): table name, RID, the image the redo half
#: puts (``None``: clear), the image an undo restores, the count of
#: visible indexes (section 3.1), the indexes whose maintenance went to a
#: side-file, on a replica the write's original ``(writer, origin_lsn)``.
(H_TABLE, H_RID, H_VALUES, H_OLD_VALUES, H_VISIBLE, H_SF_ROUTED,
 H_ORIGIN) = range(7)

#: The ``(old, new)`` rule of :meth:`Table.write`, keyed by ``(old is not
#: None, new is not None)``: the redo operation, the undo operation and
#: the counter of a local write.
_HEAP_OPS = {
    (False, True): ("heap.put", "heap.insert", "heap.inserts"),
    (True, True): ("heap.put", "heap.update", "heap.updates"),
    (True, False): ("heap.clear", "heap.delete", "heap.deletes"),
}
#: a replica's applied write counts by its redo operation instead
_APPLIED = {"heap.put": "cluster.applied_puts",
            "heap.clear": "cluster.applied_clears"}


# -- redo (called by restart recovery; a generator) ------------------------------


def redo_page_run(system: "System", page_id: PageId, run):
    """Redo one data page's run of heap records from the log's columns
    (:meth:`LogManager.redo_runs`): fetch the page once, skip what its
    Page-LSN covers, put or clear the rest, stamp the page once.  Counts
    the buffer hits and redos a fetch and a redo a record would."""
    page = yield from system.buffer.ensure_page(
        page_id, system.tables[page_id.file].page_capacity)
    covered, skipped = page.page_lsn, 0
    for records, (_page_id, _op, lsn, _txn_id, row, payload) \
            in enumerate(run, 1):
        if lsn <= covered:
            skipped = records
            continue
        if records == skipped + 1:  # the first record redone: the recLSN
            system.buffer.mark_dirty(page, lsn)
        shape = row >> SLOT_BITS & 3
        values = payload if shape == ROW_IMAGE \
            else payload[0 if shape == ROW_IMAGES else H_VALUES]
        if values is None:
            page.clear(row & SLOT_MASK)
        else:
            page.put(row & SLOT_MASK, Record(values))
    counters = system.metrics.counters
    if records > skipped:
        page.page_lsn = lsn
        counters["recovery.redos"] += records - skipped
    if records > 1:
        counters["buffer.hits"] += records - 1


def _reject_redo(system: "System", *_fields):  # pragma: no cover
    raise AssertionError("heap records are redone a page run at a time")


# -- undo handler (called by Transaction.rollback; a generator) ------------------


def _undo(system: "System", txn: "Transaction", record: LogRecord):
    """Put the old image back at the logged RID (an undone insert has
    none: clear the slot), let the maintenance hook compensate
    (Figure 2) and describe the CLR."""
    payload = record.payload
    table = system.tables[payload[H_TABLE]]
    rid, undone, restored = \
        payload[H_RID], payload[H_VALUES], payload[H_OLD_VALUES]
    before = None if undone is None else Record(undone)
    after = None if restored is None else Record(restored)
    page = yield from table._fetch_page(rid >> SLOT_BITS)
    yield Acquire(page.latch, EXCLUSIVE)
    try:
        if after is None:
            page.clear(rid & SLOT_MASK)
        else:
            page.put(rid & SLOT_MASK, after)
    finally:
        page.latch.release(system.sim.current)
    yield from table.maintenance.on_undo(
        txn, record, rid=rid, old_record=before, new_record=after)
    clr, row, size = table.log_payload(rid, restored, undo=False)
    op = "heap.clear" if restored is None else "heap.put"
    return (op, clr), size, page, row
