"""The replica apply path, record by record: ``apply_record`` turns a
shipped ``heap.put`` / ``heap.clear`` into a local write with the undo
operation the slot's state calls for, counts it as an applied write,
and rolls back like any local writer."""

import re

import pytest

from repro.cluster.apply import apply_record, record_identity, shippable
from repro.core import IndexSpec, NSFIndexBuilder
from repro.errors import StorageError
from repro.storage import RID
from repro.storage.table import H_ORIGIN
from repro.system import System, SystemConfig
from repro.verify import audit_index

CONFIG = dict(page_capacity=4)


def drive(system, body):
    proc = system.spawn(body, name="driver")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def primary_history():
    """Shippable records of a small primary, one list per transaction:
    four inserts, then an update (key change), a delete and an insert."""
    system = System(SystemConfig(**CONFIG))
    table = system.create_table("t", ["k", "p"])

    def body():
        txn = system.txns.begin()
        for k in range(4):
            yield from table.insert(txn, (k, f"p{k}"))
        yield from txn.commit()
        txn = system.txns.begin()
        yield from table.update(txn, RID(0, 0), (40, "moved"))
        yield from table.delete(txn, RID(0, 1))
        yield from table.insert(txn, (9, "late"))
        yield from txn.commit()

    drive(system, body())
    batches: dict = {}
    for record in system.log.scan():
        if shippable(record):
            batches.setdefault(record.txn_id, []).append(record)
    return list(batches.values())


def make_replica():
    system = System(SystemConfig(**CONFIG))
    return system, system.create_table("t", ["k", "p"])


def apply(system, records, rollback=False):
    def body():
        txn = system.txns.begin("apply")
        for record in records:
            yield from apply_record(txn, system, record,
                                    record_identity("primary", record))
        if rollback:
            yield from txn.rollback()
        else:
            yield from txn.commit()

    drive(system, body())


def last_update(system):
    return [record for record in system.log.scan()
            if record.redo_op in ("heap.put", "heap.clear")
            and record.undo_op is not None][-1]


def test_put_into_empty_slot_logs_an_insert():
    (first, *_), _second = primary_history()
    system, _table = make_replica()
    apply(system, [first])
    logged = last_update(system)
    assert (logged.redo_op, logged.undo_op) == ("heap.put", "heap.insert")
    assert logged.payload[H_ORIGIN] == ("primary", first.lsn)
    assert system.metrics.get("cluster.applied_puts") == 1
    assert system.metrics.get("heap.inserts") == 0


def test_put_over_live_record_logs_an_update():
    preload, (update, _delete, _insert) = primary_history()
    system, table = make_replica()
    apply(system, preload)
    apply(system, [update])
    logged = last_update(system)
    assert (logged.redo_op, logged.undo_op) == ("heap.put", "heap.update")
    assert dict(table.audit_records())[RID(0, 0)].values == (40, "moved")
    assert system.metrics.get("cluster.applied_puts") == 5
    assert system.metrics.get("heap.updates") == 0


def test_clear_logs_a_delete():
    preload, (_update, delete, _insert) = primary_history()
    system, table = make_replica()
    apply(system, preload)
    apply(system, [delete])
    logged = last_update(system)
    assert (logged.redo_op, logged.undo_op) == ("heap.clear", "heap.delete")
    assert RID(0, 1) not in dict(table.audit_records())
    assert system.metrics.get("cluster.applied_clears") == 1
    assert system.metrics.get("heap.deletes") == 0


def test_clear_of_an_empty_slot_names_the_original_write():
    preload, (_update, delete, _insert) = primary_history()
    system, _table = make_replica()
    apply(system, preload[:1])     # RID(0, 1) never arrives
    origin = record_identity("primary", delete)
    with pytest.raises(StorageError, match=re.escape(str(origin))):
        apply(system, [delete])


def test_rolled_back_apply_restores_slot_and_index():
    preload, changes = primary_history()
    system, table = make_replica()
    apply(system, preload)
    drive(system, NSFIndexBuilder(system, table,
                                  IndexSpec.of("idx", ["k"])).run())
    descriptor = system.indexes["idx"]
    before = dict(table.audit_records())
    apply(system, changes, rollback=True)
    assert dict(table.audit_records()) == before
    assert audit_index(system, descriptor)["entries"] == len(before)
