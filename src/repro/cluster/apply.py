"""The replica apply path: redo shipped heap records as local updates.

Replication here is *physical and logical at once*: the shipped record
is the primary's physical ``heap.put`` / ``heap.clear`` redo payload
(the same payloads ARIES-lite restart replays), but the replica applies
it through its own full write path -- record lock, page latch, local
WAL record, and crucially its own **index maintenance** (the one
:meth:`Table.write` a local writer makes).  That last part is the
point of the whole subsystem: a replica building a divergent index
online keeps its side-file fed by the apply loop exactly as a primary
build is fed by foreground updates, so the paper's no-quiesce
machinery carries over to replication unchanged.

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
from repro.storage.page import Record
from repro.storage.rid import rid_page
from repro.storage.table import H_ORIGIN, H_RID, H_TABLE, H_VALUES
from repro.wal.records import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
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
    tagged with its :func:`record_identity` ``origin``.

    The primary's physical history dictates the slot, so the replica
    extends its heap file to cover it and then makes the write a local
    writer makes (:meth:`Table.write`): a put into an empty slot logs an
    insert, over a record an update, so a crashed apply transaction
    rolls back exactly like any local writer.  A clear must find a
    record: shipping is exactly-once and in order, so a missing one
    means the replication invariant broke, and the write fails loudly
    naming ``origin`` rather than paper over it.
    """
    payload = record.payload
    table = system.tables.get(payload[H_TABLE])
    if table is None:
        raise StorageError(
            f"shipped record for unknown table {payload[H_TABLE]!r}")
    rid, values = payload[H_RID], payload[H_VALUES]
    yield from txn.lock(table.table_lock_name, "IX")
    granted = yield from txn.lock(table.lock_name(rid), "X")
    assert granted
    while table.page_count <= rid_page(rid):
        yield from table._allocate_page()
    yield from table.write(txn, rid,
                           None if values is None else Record(values),
                           origin=origin)


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
