"""Extension: online index build over an index-organized table (§6.2).

"Our algorithms can also be easily extended to the storage model in which
the records are stored in the primary index and the primary key is
required to be unique.  We would perform a complete range scan of the
primary index to construct the keys for the new index.  In SF, in the
place of Current-RID, we would use the current-key as the scan position.
Since the primary key has to be unique, this position also would be a
unique one in the index."

This module provides:

* :class:`IOTable` -- a table whose records live in a unique primary
  B+-tree keyed by the first column; secondary index entries are
  ``<key value, primary key>`` (the primary key is encoded in the RID slot
  of the secondary tree's entries, as ``RID(pk, 0)``), and the table
  serves the one maintenance hook (Figure 1 / Figure 2) and
  :func:`~repro.verify.audit_index` like a heap table;
* :class:`SFIotBuilder` -- SF with the primary-key range scan
  (:class:`~repro.core.sources.IotScan`) as its key source.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, TYPE_CHECKING

from repro.btree.tree import BTree
from repro.core.maintenance import IOT_MODE
from repro.core.sf import SFIndexBuilder
from repro.core.sources import IotScan
from repro.errors import RecordNotFoundError, StorageError
from repro.sim.kernel import Delay
from repro.storage.page import Record
from repro.storage.rid import INFINITY_RID, RID, rid_page
from repro.storage.table import (H_OLD_VALUES, H_RID, H_TABLE, H_VALUES,
                                 NullMaintenance, _NullSnapshot)
from repro.wal.records import HEADER_SIZE, OP_SIZE, LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System
    from repro.txn.transaction import Transaction


class IOTable:
    """A table stored in its (unique) primary index.

    The first column is the primary key, an int in ``[0, 2**62)`` so
    that ``RID(pk, 0)`` lies between ``RID(0, 0)`` ("nothing scanned")
    and ``INFINITY_RID``.  Rows are kept in a dict (the "data" part of
    the primary index's leaf entries) while a unique :class:`BTree`
    maintains ordering for range scans; both are updated under WAL
    protection so crash recovery replays them.
    """

    def __init__(self, system: "System", name: str,
                 columns: Sequence[str]) -> None:
        self.system = system
        self.name = name
        self.columns = tuple(columns)
        self.primary = BTree(system, f"{name}.pk", name, unique=True)
        self.rows: dict = {}
        #: secondary index descriptors in creation order (as a heap
        #: table's, section 3.1 footnote 6)
        self.indexes: list = []
        self.maintenance = NullMaintenance()
        self._register_operations()

    def column_indexes(self, columns: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.columns.index(c) for c in columns)
        except ValueError as exc:
            raise StorageError(f"unknown column in {columns!r}") from exc

    def lock_name(self, pk) -> tuple:
        """Data-only locking: key locks equal record locks (section 6.2)
        -- the name a secondary tree's next-key lock gives ``RID(pk, 0)``."""
        return ("rec", self.name, RID(pk, 0))

    # -- record operations (generators) ---------------------------------------

    def insert(self, txn: "Transaction", values: Sequence):
        pk = values[0]
        if type(pk) is not int or not 0 <= pk < rid_page(INFINITY_RID):
            raise StorageError(
                f"{self.name}: primary key {pk!r} is not an int in "
                "[0, 2**62)")
        yield from txn.lock(self.lock_name(pk), "X")
        yield from self._write(txn, pk, Record(tuple(values)),
                               occupied=False)
        return pk

    def delete(self, txn: "Transaction", pk):
        yield from txn.lock(self.lock_name(pk), "X")
        return (yield from self._write(txn, pk, None))

    def update(self, txn: "Transaction", pk, new_values: Sequence):
        """Update non-key columns (the primary key itself is immutable;
        change it with delete+insert, as index-organized stores require)."""
        if new_values[0] != pk:
            raise StorageError("primary key update must be delete+insert")
        yield from txn.lock(self.lock_name(pk), "X")
        new = Record(tuple(new_values))
        old = yield from self._write(txn, pk, new, occupied=True)
        return old, new

    def read(self, txn: "Transaction", pk):
        yield from txn.lock(self.lock_name(pk), "S")
        record = self.rows.get(pk)
        if record is None:
            raise RecordNotFoundError(f"{self.name} has no row {pk!r}")
        return record

    def _write(self, txn: "Transaction", pk, new: Optional[Record],
               occupied: Optional[bool] = None):
        """Generator: :meth:`Table.write` with the primary key in place of
        the RID -- the caller holds the key's X lock; ``old`` is the row
        stored under ``pk``, and ``(old, new)`` names the operations
        (:data:`_IOT_OPS`).  Returns ``old``."""
        old = self.rows.get(pk)
        if old is None:
            if new is None or occupied:
                raise RecordNotFoundError(f"{self.name} has no row {pk!r}")
        elif occupied is False:
            raise StorageError(f"duplicate primary key {pk!r}")
        redo_op, undo_op, counter = \
            _IOT_OPS[old is not None, new is not None]
        snapshot = self.maintenance.prepare(txn, RID(pk, 0), old, new)
        self._store(pk, old, new)
        payload, size = iot_payload(
            self.name, pk, None if new is None else new.values,
            None if old is None else old.values, snapshot)
        txn.log(RecordKind.UPDATE, redo=(redo_op, payload),
                undo=(undo_op, payload), size=size)
        yield Delay(self.system.config.record_op_cost)
        self.system.metrics.incr(counter)
        if snapshot.direct:
            yield from self.maintenance.apply_direct(txn, snapshot)
        return old

    def _store(self, pk, old: Optional[Record],
               new: Optional[Record]) -> None:
        """Put ``new`` in ``old``'s place in the rows and the primary
        index (``None``: no row)."""
        if new is None:
            self.rows.pop(pk, None)
            self.primary.apply_logical("physical_delete", (pk,), RID(0, 0))
        else:
            self.rows[pk] = new
            if old is None:
                self.primary.apply_logical("insert", (pk,), RID(0, 0))

    # -- scans and audits --------------------------------------------------------------

    def range_scan(self) -> Iterator[tuple]:
        """(pk, record) pairs in primary-key order, read off the primary
        index's leaf chain (audit; no latching)."""
        rows = self.rows
        for pk, _rid in self.primary.all_entries():
            yield pk, rows[pk]

    def audit_records(self) -> Iterator[tuple[int, Record]]:
        """Every row under its secondary-entry RID, for verification code
        (:func:`~repro.verify.audit_index`)."""
        for pk, record in self.range_scan():
            yield RID(pk, 0), record

    # -- recovery ---------------------------------------------------------------------------

    def _register_operations(self) -> None:
        ops = self.system.log.operations
        if ops.knows("iot.put"):
            return
        ops.register("iot.put", redo=_redo_iot)
        ops.register("iot.del", redo=_redo_iot)
        for undo_op in ("iot.insert", "iot.delete", "iot.update"):
            ops.register(undo_op, redo=_reject, undo=_undo_iot)


class SFIotBuilder(SFIndexBuilder):
    """``iot``: SF over an index-organized table -- the primary-key range
    scan in place of the data-page scan, everything after it SF's."""

    mode = IOT_MODE
    key_source = IotScan


# -- recovery handlers -----------------------------------------------------------


def _table(system: "System", name: str) -> Optional[IOTable]:
    table = system.tables.get(name)
    return table if isinstance(table, IOTable) else None


#: :data:`repro.storage.table._HEAP_OPS`'s ``(old, new)`` rule for rows
#: stored under a primary key
_IOT_OPS = {
    (False, True): ("iot.put", "iot.insert", "iot.inserts"),
    (True, True): ("iot.put", "iot.update", "iot.updates"),
    (True, False): ("iot.del", "iot.delete", "iot.deletes"),
}


def iot_payload(table: str, pk, values: Optional[tuple],
                old_values: Optional[tuple] = None, snapshot=_NullSnapshot,
                *, undo: bool = True) -> tuple[tuple, int]:
    """The payload of one ``iot.*`` log record and its logged size.

    The fields sit at a heap record's ``H_*`` positions, the primary key
    in the RID's: table name, primary key, the row the redo half puts
    (``None``: it deletes), the row an undo restores, the count of
    visible indexes and the side-file routed ones (section 3.1, read by
    Figure 2).  Sized as if each half carried table name and key itself,
    the redo half its row once, the undo half (``undo=False``: a CLR has
    none) both."""
    half = OP_SIZE + len(table) + 8
    rows = 0
    if values is not None:
        rows = 8 * (len(values) or 1)
    size = HEADER_SIZE + half + rows
    if undo:
        if old_values is not None:
            rows += 8 * (len(old_values) or 1)
        size += half + rows
    return (table, pk, values, old_values, snapshot.count,
            tuple(snapshot.sf_routed)), size


def _redo_iot(system: "System", _lsn, _txn_id, _page_id, payload):
    table = _table(system, payload[H_TABLE])
    if table is not None:
        pk, values = payload[H_RID], payload[H_VALUES]
        table._store(pk, table.rows.get(pk),
                     None if values is None else Record(values))
    return
    yield  # pragma: no cover - generator shape


def _reject(system, *_fields):  # pragma: no cover
    raise AssertionError("iot undo payloads are never redone")


def _undo_iot(system: "System", txn, record: LogRecord):
    """Put the old row back under the logged key (an undone insert has
    none: delete the row), let the maintenance hook compensate
    (Figure 2) and describe the CLR."""
    payload = record.payload
    name, pk, undone, restored = (payload[H_TABLE], payload[H_RID],
                                  payload[H_VALUES], payload[H_OLD_VALUES])
    table = _table(system, name)
    if table is not None:
        before = None if undone is None else Record(undone)
        after = None if restored is None else Record(restored)
        table._store(pk, before, after)
        yield from table.maintenance.on_undo(
            txn, record, rid=RID(pk, 0), old_record=before, new_record=after)
    clr, size = iot_payload(name, pk, restored, undo=False)
    yield Delay(system.config.record_op_cost)
    return ("iot.del" if restored is None else "iot.put", clr), size, None, 0
