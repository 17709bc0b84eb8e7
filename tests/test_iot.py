"""Tests for the index-organized-table extension (section 6.2)."""

import pytest

from repro.core.iot import (
    IOTable,
    KEY_INFINITY,
    SFIotBuilder,
    audit_iot_index,
)
from repro.errors import RecordNotFoundError, StorageError
from repro.recovery import restart
from repro.sim import Delay
from repro.system import System, SystemConfig


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def make_table(system, n=0):
    table = IOTable(system, "iot", ["pk", "city", "amount"])
    system.tables["iot"] = table
    if n:
        def body():
            txn = system.txns.begin()
            for i in range(n):
                yield from table.insert(txn, (i, f"city-{i % 7}", i * 10))
            yield from txn.commit()
        drive(system, body())
    return table


def test_iot_insert_read_delete():
    system = System()
    table = make_table(system)

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (5, "sf", 100))
        record = yield from table.read(txn, 5)
        assert record.values == (5, "sf", 100)
        yield from table.delete(txn, 5)
        yield from txn.commit()

    drive(system, body())
    assert list(table.range_scan()) == []


def test_iot_duplicate_pk_rejected():
    system = System()
    table = make_table(system)

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (5, "a", 1))
        try:
            yield from table.insert(txn, (5, "b", 2))
        finally:
            yield from txn.commit()

    with pytest.raises(StorageError):
        drive(system, body())


def test_iot_pk_change_rejected():
    system = System()
    table = make_table(system, n=3)

    def body():
        txn = system.txns.begin()
        try:
            yield from table.update(txn, 1, (9, "x", 0))
        finally:
            yield from txn.commit()

    with pytest.raises(StorageError):
        drive(system, body())


def test_iot_rollback_restores_rows():
    system = System()
    table = make_table(system, n=3)

    def body():
        txn = system.txns.begin()
        yield from table.delete(txn, 1)
        yield from table.update(txn, 2, (2, "changed", 0))
        yield from table.insert(txn, (9, "new", 0))
        yield from txn.rollback()

    drive(system, body())
    rows = dict(table.range_scan())
    assert sorted(rows) == [0, 1, 2]
    assert rows[2].values == (2, "city-2", 20)


def test_iot_secondary_build_static():
    system = System()
    table = make_table(system, n=50)
    builder = SFIotBuilder(system, table, "idx_city", ["city"])
    drive(system, builder.run(), name="builder")
    assert builder.index.available
    report = audit_iot_index(table, builder.index)
    assert report["entries"] == 50
    assert report["clustering"] == 1.0


@pytest.mark.parametrize("rows", [100, 128, 30])
def test_iot_load_charges_every_key(rows):
    """The bulk load costs keys x bulk_load_key_cost on the simulated
    clock, also for the keys after the last full batch of 64."""
    def build_time(key_cost):
        system = System(SystemConfig(bulk_load_key_cost=key_cost))
        table = make_table(system, n=rows)
        started = system.now()
        drive(system, SFIotBuilder(system, table, "idx_city",
                                   ["city"]).run(), name="builder")
        return system.now() - started

    assert build_time(1.0) - build_time(0.0) == pytest.approx(rows)


def test_iot_secondary_build_under_updates():
    system = System(seed=3)
    table = make_table(system, n=120)
    builder = SFIotBuilder(system, table, "idx_city", ["city"])

    def updater():
        import random
        rng = random.Random(99)
        txn_count = 0
        for step in range(60):
            yield Delay(rng.uniform(0.2, 1.0))
            txn = system.txns.begin()
            choice = rng.random()
            live = sorted(table.rows)
            if choice < 0.4 or not live:
                pk = 1000 + step
                yield from table.insert(txn, (pk, f"new-{step % 5}", step))
            elif choice < 0.7:
                pk = rng.choice(live)
                yield from table.delete(txn, pk)
            else:
                pk = rng.choice(live)
                row = table.rows[pk]
                yield from table.update(
                    txn, pk, (pk, f"upd-{step % 3}", row.values[2]))
            if rng.random() < 0.2:
                yield from txn.rollback()
            else:
                yield from txn.commit()
            txn_count += 1
        return txn_count

    build_proc = system.spawn(builder.run(), name="builder")
    upd_proc = system.spawn(updater(), name="updater")
    system.run()
    assert build_proc.error is None
    assert upd_proc.error is None
    audit_iot_index(table, builder.index)
    # the current-key machinery actually routed some changes
    assert system.metrics.get("iot.sidefile_drained") > 0


def test_iot_rollback_after_build_restores_secondary():
    """Once the index is AVAILABLE, maintenance is direct and logged; a
    rolled-back insert, key-changing update and delete must leave the
    rows and the secondary index as they were."""
    system = System()
    table = make_table(system, n=20)
    builder = SFIotBuilder(system, table, "idx_city", ["city"])
    drive(system, builder.run(), name="builder")
    assert builder.index.available
    before = dict(table.range_scan())

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (99, "city-new", 0))
        yield from table.update(txn, 3, (3, "city-moved", 30))
        yield from table.delete(txn, 5)
        yield from txn.rollback()

    drive(system, body())
    assert dict(table.range_scan()) == before
    assert audit_iot_index(table, builder.index)["entries"] == 20
    assert system.metrics.get("iot.inserts") == 21
    assert system.metrics.get("iot.updates") == 1
    assert system.metrics.get("iot.deletes") == 1


def test_iot_behind_scan_logic():
    system = System()
    table = make_table(system, n=10)
    builder = SFIotBuilder(system, table, "idx_city", ["city"])
    table.build = builder
    builder.current_key = None
    assert not table._behind_scan(5)
    builder.current_key = 5
    assert table._behind_scan(3)
    # current_key is the last key already pushed into the sort
    assert table._behind_scan(5)
    assert not table._behind_scan(7)
    builder.current_key = KEY_INFINITY
    assert table._behind_scan(7)
    table.build = None


def test_iot_change_at_the_scan_position_reaches_the_index():
    """A row changed between two scan batches *at* ``current_key`` was
    already pushed into the sort: its change must go to the side-file,
    or the index keeps the old key (and misses the new one)."""
    system = System()
    table = make_table(system, n=40)
    builder = SFIotBuilder(system, table, "idx_city", ["city"])
    moved = []

    def updater():
        while builder.current_key is None:
            yield Delay(0.01)
        pk = builder.current_key
        txn = system.txns.begin()
        yield from table.update(txn, pk, (pk, "moved", 0))
        yield from txn.commit()
        moved.append((pk, builder.current_key))

    procs = [system.spawn(builder.run(), name="builder"),
             system.spawn(updater(), name="updater")]
    system.run()
    assert all(proc.error is None for proc in procs)
    # the update landed while the scan still stood at that row
    assert moved == [(15, 15)]
    audit_iot_index(table, builder.index)


def test_iot_crash_recovery_of_rows():
    system = System()
    table = make_table(system, n=5)

    def more():
        txn = system.txns.begin()
        yield from table.insert(txn, (100, "durable", 1))
        yield from txn.commit()
        loser = system.txns.begin()
        yield from table.insert(loser, (200, "volatile", 2))
        system.log.flush()

    drive(system, more())
    # carry the IOT across restart by hand (restart() rebuilds heap
    # tables; the IOT registers itself)
    system.crash()
    table.rows.clear()
    table.primary.crash()
    recovered, _state = restart(system)
    recovered.tables["iot"] = table
    table.system = recovered
    table.primary.system = recovered

    def noop():
        yield Delay(0)

    # replay the WAL by hand through the registered redo handlers
    proc = recovered.spawn(_replay(recovered), name="replay")
    recovered.run()
    assert proc.error is None
    # the loser's insert of pk 200 was rolled back at restart (its CLR
    # "iot.del" replays over the manual redo of its "iot.put")
    assert sorted(table.rows) == [0, 1, 2, 3, 4, 100]


def _replay(system):
    registry = system.log.operations
    for record in list(system.log.scan()):
        if record.redo is None:
            continue
        op_name, _args = record.redo
        if op_name.startswith("iot."):
            yield from registry.redo(op_name)(system, record)
