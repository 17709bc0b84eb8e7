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
  of the secondary tree's entries, as ``RID(pk, 0)``);
* :class:`SFIotBuilder` -- the SF algorithm over that storage model: a
  range scan of the primary index with ``current_key`` as the scan
  position, a side-file for changes behind the scan, bottom-up load, and
  a drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, TYPE_CHECKING

from repro.btree.loader import BulkLoader
from repro.btree.tree import BTree
from repro.errors import RecordNotFoundError, StorageError
from repro.core.maintenance import key_changes
from repro.sidefile import (DELETE, INSERT, SideFile,
                            register_sidefile_operations)
from repro.sim.kernel import Delay
from repro.sort import RunFormation, RunStore, final_merger
from repro.storage.page import Record
from repro.storage.rid import RID
from repro.wal.records import (HEADER_SIZE, OP_SIZE, LogRecord, RecordKind,
                               value_size)

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System
    from repro.txn.transaction import Transaction

#: Scan-position sentinel: "the whole key range has been scanned".
KEY_INFINITY = object()


@dataclass
class IotSecondaryIndex:
    """Catalog entry for one secondary index over an :class:`IOTable`."""

    name: str
    key_columns: tuple[int, ...]   # column positions within the record
    tree: BTree
    available: bool = False

    def key_of(self, record: Record) -> tuple:
        return record.project(self.key_columns)


class IOTable:
    """A table stored in its (unique) primary index.

    The first column is the primary key.  Rows are kept in a dict (the
    "data" part of the primary index's leaf entries) while a unique
    :class:`BTree` maintains ordering for range scans; both are updated
    under WAL protection so crash recovery replays them.
    """

    def __init__(self, system: "System", name: str,
                 columns: Sequence[str]) -> None:
        self.system = system
        self.name = name
        self.columns = tuple(columns)
        self.primary = BTree(system, f"{name}.pk", name, unique=True)
        self.rows: dict = {}
        self.secondary: list[IotSecondaryIndex] = []
        #: active SF build over this table, if any
        self.build: Optional["SFIotBuilder"] = None
        self._register_operations()

    # -- key helpers -------------------------------------------------------

    def column_indexes(self, columns: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.columns.index(c) for c in columns)
        except ValueError as exc:
            raise StorageError(f"unknown column in {columns!r}") from exc

    def lock_name(self, pk) -> tuple:
        """Data-only locking: key locks equal record locks (section 6.2)."""
        return ("iot", self.name, pk)

    @staticmethod
    def pk_rid(pk) -> RID:
        """The primary key encoded in a secondary entry's RID slot."""
        return RID(pk, 0)

    # -- record operations (generators) ---------------------------------------

    def insert(self, txn: "Transaction", values: Sequence):
        pk = values[0]
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
        self._store(pk, old, new)
        payload, size = iot_payload(
            self.name, pk, None if new is None else new.values,
            None if old is None else old.values)
        txn.log(RecordKind.UPDATE, redo=(redo_op, payload),
                undo=(undo_op, payload), size=size)
        self._maintain(txn, pk, old, new)
        yield Delay(self.system.config.record_op_cost)
        self.system.metrics.incr(counter)
        return old

    def _store(self, pk, old: Optional[Record],
               new: Optional[Record]) -> None:
        """Put ``new`` in ``old``'s place in the rows and the primary
        index (``None``: no row)."""
        if new is None:
            self.rows.pop(pk, None)
            self.primary.apply_logical("physical_delete", pk, RID(0, 0))
        else:
            self.rows[pk] = new
            if old is None:
                self.primary.apply_logical("insert", pk, RID(0, 0))

    # -- visibility (current-key in place of Current-RID) -----------------------

    def _behind_scan(self, pk) -> bool:
        """Is ``pk`` behind the in-progress build's scan position?"""
        if self.build is None:
            return False
        position = self.build.current_key
        if position is None:
            return False
        if position is KEY_INFINITY:
            return True
        # current_key is the last key already pushed into the sort, so
        # the row at it is behind the scan too
        return pk <= position

    # -- secondary maintenance ------------------------------------------------------

    def _maintain(self, txn, pk, old: Optional[Record],
                  new: Optional[Record]) -> None:
        """Figure 1 (and, from an undo, Figure 2) for the secondary
        indexes: a completed index is changed directly and logged, one
        being built gets side-file entries while ``pk`` is behind the
        scan and is left alone ahead of it."""
        behind = self._behind_scan(pk)
        rid = self.pk_rid(pk)
        for index in self.secondary:
            changes = key_changes(index, old, new)
            if not changes:
                continue
            if index.available:
                for operation, key in changes:
                    action, undo_action = _TREE_ACTIONS[operation]
                    index.tree._change(txn, None, None, None, action,
                                       undo_action, key, rid, None)
            elif self.build is not None \
                    and index in self.build.indexes and behind:
                sidefile = self.system.sidefiles[index.name]
                for operation, key in changes:
                    sidefile.append_sync(txn, operation, key, rid)

    # -- scans and audits --------------------------------------------------------------

    def range_scan(self) -> Iterator[tuple]:
        """(pk, record) pairs in primary-key order (audit; no latching)."""
        for pk in sorted(self.rows):
            yield pk, self.rows[pk]

    # -- recovery ---------------------------------------------------------------------------

    def _register_operations(self) -> None:
        ops = self.system.log.operations
        if ops.knows("iot.put"):
            return
        ops.register("iot.put", redo=_redo_iot)
        ops.register("iot.del", redo=_redo_iot)
        for undo_op in ("iot.insert", "iot.delete", "iot.update"):
            ops.register(undo_op, redo=_reject, undo=_undo_iot)


class SFIotBuilder:
    """SF over an index-organized table: current-key scan position."""

    def __init__(self, system: "System", table: IOTable, name: str,
                 key_columns: Sequence[str],
                 sort_workspace: Optional[int] = None) -> None:
        self.system = system
        self.table = table
        index = IotSecondaryIndex(
            name=name,
            key_columns=table.column_indexes(key_columns),
            tree=BTree(system, name, table.name),
        )
        self.indexes = [index]
        self.index = index
        #: the scan position: None (nothing scanned) -> pk values ->
        #: KEY_INFINITY (scan complete)
        self.current_key = None
        self.sort_workspace = sort_workspace \
            or system.config.sort_workspace

    def run(self):
        """Generator process body: build the secondary index online."""
        system = self.system
        table = self.table
        register_sidefile_operations(system)
        system.sidefiles[self.index.name] = SideFile(system,
                                                     self.index.name)
        table.secondary.append(self.index)
        table.build = self

        # Range scan of the primary index in key order, batched so update
        # transactions interleave.  A snapshot of the key range ahead of
        # the scan is re-taken each batch: rows inserted ahead are seen,
        # rows inserted behind go to the side-file.
        store = RunStore(prefix=f"iot:{self.index.name}")
        system.run_stores[f"iot:{self.index.name}"] = store
        sorter = RunFormation(store, self.sort_workspace)
        batch = 16
        while True:
            pending = [pk for pk in sorted(table.rows)
                       if self.current_key is None
                       or pk > self.current_key]
            if not pending:
                self.current_key = KEY_INFINITY
                break
            chunk = pending[:batch]
            sorter.push_many([(self.index.key_of(table.rows[pk]),
                               tuple(IOTable.pk_rid(pk))) for pk in chunk])
            self.current_key = chunk[-1]
            yield Delay(len(chunk) * system.config.tree_visit_cost)
        runs = sorter.finish()
        system.metrics.incr("iot.scan_complete")

        # Bottom-up, unlogged load (pipelined final merge).
        merger = final_merger(store, runs, system.config.merge_fanin)
        loader = BulkLoader(self.index.tree)
        while merger is not None:
            merged = merger.pop_many(64)
            if not merged:
                break
            loader.extend(merged)
            yield Delay(len(merged) * system.config.bulk_load_key_cost)
        loader.finish()
        self.index.tree.force()

        # Drain the side-file, then flip atomically.
        sidefile = system.sidefiles[self.index.name]
        ib_txn = system.txns.begin(f"IB-iot-{self.index.name}")
        position = 0
        while True:
            while position < len(sidefile.entries):
                entry = sidefile.entries[position]
                position += 1
                yield from self.index.tree.sf_drain_apply_batch(
                    ib_txn, [(entry.operation, entry.key_value, entry.rid)])
                system.metrics.incr("iot.sidefile_drained")
            if position == len(sidefile.entries):
                self.index.available = True
                table.build = None
                break
        yield from ib_txn.commit()
        return self.index


def audit_iot_index(table: IOTable, index: IotSecondaryIndex) -> dict:
    """Verify a secondary index against its IOT (like audit_index)."""
    from repro.verify.consistency import ConsistencyError

    expected = {(index.key_of(record), IOTable.pk_rid(pk))
                for pk, record in table.range_scan()}
    actual = {(entry.key_value, entry.rid)
              for entry in index.tree.all_entries()}
    if expected != actual:
        raise ConsistencyError(
            f"{index.name}: IOT mismatch -- missing "
            f"{sorted(expected - actual)[:3]}, spurious "
            f"{sorted(actual - expected)[:3]}")
    return {"entries": len(actual),
            "clustering": index.tree.clustering_factor()}


# -- recovery handlers -----------------------------------------------------------


def _table(system: "System", name: str) -> Optional[IOTable]:
    table = system.tables.get(name)
    return table if isinstance(table, IOTable) else None


#: Field positions of the one payload every ``iot.*`` operation reads
#: (built by :func:`iot_payload`): table name, primary key, the row the
#: redo half puts (``None``: it deletes), and the row an undo restores.
IOT_TABLE, IOT_PK, IOT_VALUES, IOT_OLD_VALUES = range(4)

#: :data:`repro.storage.table._HEAP_OPS`'s ``(old, new)`` rule for rows
#: stored under a primary key
_IOT_OPS = {
    (False, True): ("iot.put", "iot.insert", "iot.inserts"),
    (True, True): ("iot.put", "iot.update", "iot.updates"),
    (True, False): ("iot.del", "iot.delete", "iot.deletes"),
}
#: a secondary key operation as a logged tree action and its undo
_TREE_ACTIONS = {INSERT: ("insert", "physical_delete"),
                 DELETE: ("physical_delete", "insert")}


def iot_payload(table: str, pk, values: Optional[tuple],
                old_values: Optional[tuple] = None,
                *, undo: bool = True) -> tuple[tuple, int]:
    """The payload of one ``iot.*`` log record and its logged size: each
    half as if it carried table name and key itself, the redo half its
    row once, the undo half (``undo=False``: a CLR has none) both."""
    half = OP_SIZE + len(table) + value_size(pk)
    rows = 0
    if values is not None:
        rows = 8 * (len(values) or 1)
    size = HEADER_SIZE + half + rows
    if undo:
        if old_values is not None:
            rows += 8 * (len(old_values) or 1)
        size += half + rows
    return (table, pk, values, old_values), size


def _redo_iot(system: "System", record: LogRecord):
    payload = record.payload
    table = _table(system, payload[IOT_TABLE])
    if table is not None:
        pk, values = payload[IOT_PK], payload[IOT_VALUES]
        table._store(pk, table.rows.get(pk),
                     None if values is None else Record(values))
    return
    yield  # pragma: no cover - generator shape


def _reject(system, record):  # pragma: no cover
    raise AssertionError("iot undo payloads are never redone")


def _undo_iot(system: "System", txn, record: LogRecord):
    """Put the old row back under the logged key (an undone insert has
    none: delete the row), maintain the secondary indexes for that
    change and describe the CLR."""
    payload = record.payload
    name, pk, restored = \
        payload[IOT_TABLE], payload[IOT_PK], payload[IOT_OLD_VALUES]
    table = _table(system, name)
    if table is not None:
        before = table.rows.get(pk)
        after = None if restored is None else Record(restored)
        table._store(pk, before, after)
        table._maintain(txn, pk, before, after)
    clr, size = iot_payload(name, pk, restored, undo=False)
    yield Delay(system.config.record_op_cost)
    return ("iot.del" if restored is None else "iot.put", clr), size, None
