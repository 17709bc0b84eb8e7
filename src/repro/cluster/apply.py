"""The replica apply path: redo shipped heap records as local updates.

Replication here is *physical and logical at once*: the shipped record
is the primary's physical ``heap.put`` / ``heap.clear`` redo payload
(the same payloads ARIES-lite restart replays), but the replica applies
it through its own full write path -- page latch, record lock, local
WAL record, and crucially its own **index maintenance**
(:meth:`prepare_insert` and friends).  That last part is the point of
the whole subsystem: a replica building a divergent index online keeps
its side-file fed by the apply loop exactly as a primary build is fed
by foreground updates, so the paper's no-quiesce machinery carries over
to replication unchanged.

Every applied record is tagged in its local WAL payload (``H_ORIGIN``)
with the identity of the *original* write -- ``(upstream, origin_lsn)``,
the writer node's name and its local LSN.  Tags survive re-shipping (a
record applied from a promoted ex-replica keeps its original writer's
tag), which is what makes exactly-once apply work across failovers:
:func:`committed_origin_floors` recovers, per original writer, the
highest origin LSN this replica has durably committed, and the shipper
skips everything at or below the floor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.sim.kernel import Acquire, Delay
from repro.sim.latch import EXCLUSIVE
from repro.storage.page import Record
from repro.storage.rid import RID
from repro.storage.table import H_ORIGIN, H_RID, H_TABLE, H_VALUES
from repro.wal.records import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System
    from repro.txn.transaction import Transaction

#: redo operations a replica applies; everything else in the upstream
#: log (index internals, checkpoints, txn control) is node-local
SHIPPABLE_OPS = ("heap.put", "heap.clear")


def record_identity(upstream_name: str, record: LogRecord
                    ) -> tuple[str, int]:
    """The original ``(writer, origin_lsn)`` of a log record.

    A record the upstream itself applied from *its* upstream carries
    the original tag in its payload; the upstream's native records are
    identified by its own name and local LSN.  ``record`` must be
    :func:`shippable`.
    """
    return record.payload[H_ORIGIN] or (upstream_name, record.lsn)


def shippable(record: LogRecord) -> bool:
    """True for records a replica replays (data-page history only)."""
    if record.kind not in (RecordKind.UPDATE, RecordKind.COMPENSATION):
        return False
    return record.redo_op in SHIPPABLE_OPS


def apply_record(txn: "Transaction", system: "System", record: LogRecord,
                 origin: tuple[str, int]):
    """Generator: apply one shipped record inside the local ``txn``,
    tagged with its :func:`record_identity` ``origin``."""
    payload = record.payload
    table = system.tables.get(payload[H_TABLE])
    if table is None:
        raise StorageError(
            f"shipped record for unknown table {payload[H_TABLE]!r}")
    if record.redo_op == "heap.put":
        yield from _apply_put(txn, table, payload[H_RID],
                              payload[H_VALUES], origin)
    else:
        yield from _apply_clear(txn, table, payload[H_RID], origin)


def _apply_put(txn: "Transaction", table: "Table", rid: RID,
               values: tuple, origin: tuple[str, int]):
    """Insert-or-update at an exact RID, mirroring the primary's write.

    The primary's physical history dictates the slot, so the replica
    pre-extends the heap file to cover it, then classifies the put by
    peeking the slot: empty means the original was an insert, occupied
    an update.  Undo payloads are the standard ones -- a crashed apply
    transaction rolls back exactly like any local writer.
    """
    system = table.system
    record = Record(values)
    yield from table._intent_lock(txn)
    granted = yield from txn.lock(table.lock_name(rid), "X")
    assert granted
    while table.page_count <= rid.page_no:
        yield from table._allocate_page()
    page = yield from table._fetch_page(rid.page_no)
    yield Acquire(page.latch, EXCLUSIVE)
    try:
        old = page.peek(rid.slot)
        if old is None:
            snapshot = table.maintenance.prepare_insert(txn, rid, record)
            undo_op, old_values = "heap.insert", None
        else:
            snapshot = table.maintenance.prepare_update(txn, rid, old,
                                                        record)
            undo_op, old_values = "heap.update", old.values
        page.put(rid.slot, record)
        payload, size = table.log_payload(rid, record.values, old_values,
                                          snapshot, origin)
        log_record = txn.log(
            RecordKind.UPDATE, page_id=page.page_id,
            redo=("heap.put", payload), undo=(undo_op, payload), size=size)
        system.buffer.mark_dirty(page, log_record.lsn)
    finally:
        page.latch.release(system.sim.current)
    yield Delay(system.config.record_op_cost)
    system.metrics.incr("cluster.applied_puts")
    yield from table.maintenance.apply_direct(txn, snapshot)


def _apply_clear(txn: "Transaction", table: "Table", rid: RID,
                 origin: tuple[str, int]):
    """Delete at an exact RID.  The slot must be occupied: shipping is
    exactly-once and in order, so a missing record means the replication
    invariant broke -- fail loudly rather than paper over it."""
    system = table.system
    yield from table._intent_lock(txn)
    granted = yield from txn.lock(table.lock_name(rid), "X")
    assert granted
    page = yield from table._fetch_page(rid.page_no)
    yield Acquire(page.latch, EXCLUSIVE)
    try:
        record = page.peek(rid.slot)
        if record is None:
            raise StorageError(
                f"shipped clear of empty slot {rid} on {table.name!r} "
                f"(writer, origin_lsn = {origin})")
        snapshot = table.maintenance.prepare_delete(txn, rid, record)
        page.clear(rid.slot)
        payload, size = table.log_payload(rid, None, record.values,
                                          snapshot, origin)
        log_record = txn.log(
            RecordKind.UPDATE, page_id=page.page_id,
            redo=("heap.clear", payload), undo=("heap.delete", payload),
            size=size)
        system.buffer.mark_dirty(page, log_record.lsn)
    finally:
        page.latch.release(system.sim.current)
    yield Delay(system.config.record_op_cost)
    system.metrics.incr("cluster.applied_clears")
    yield from table.maintenance.apply_direct(txn, snapshot)


def committed_origin_floors(system: "System") -> dict[str, int]:
    """Per original writer, the highest origin LSN durably applied here.

    Scans the local log: applied records are local heap UPDATEs tagged
    with ``(upstream, origin_lsn)``; only those whose local transaction
    COMMITted count (an apply batch that crashed mid-flight is rolled
    back by restart and must be re-shipped).  Because batches apply
    origin LSNs in order and commit monotonically, the floor covers
    *every* committed record, so "skip at or below the floor" is an
    exact resume point.
    """
    committed: set = set()
    for record in system.log.scan():
        if record.kind is RecordKind.COMMIT and record.txn_id is not None:
            committed.add(record.txn_id)
    floors: dict[str, int] = {}
    for record in system.log.scan():
        if record.kind is not RecordKind.UPDATE \
                or record.redo_op not in SHIPPABLE_OPS \
                or record.payload[H_ORIGIN] is None \
                or record.txn_id not in committed:
            continue
        writer, origin = record.payload[H_ORIGIN]
        if origin > floors.get(writer, 0):
            floors[writer] = origin
    return floors
