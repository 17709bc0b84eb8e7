"""Tests for the index-organized-table extension (section 6.2)."""

import random

import pytest

from repro.core import (
    BuildContext,
    IndexSpec,
    IndexState,
    SFIndexBuilder,
    build_pre_undo,
    resume_builds,
)
from repro.core.iot import IOTable, SFIotBuilder
from repro.core.maintenance import IOT_MODE
from repro.errors import RecordNotFoundError, StorageError
from repro.obs import enable_progress, enable_tracing
from repro.recovery import restart, run_until_crash
from repro.schedsweep import RandomTiePolicy
from repro.sim import Delay
from repro.storage.rid import INFINITY_RID, RID, rid_page
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.wal import RecordKind


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


def city_builder(system, table):
    return SFIotBuilder(system, table, IndexSpec.of("idx_city", ["city"]))


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


def test_iot_refuses_a_primary_key_outside_the_rid_range():
    """``RID(0, 0)`` and ``INFINITY_RID`` bound ``RID(pk, 0)`` only for an
    int pk in ``[0, 2**62)``; outside it a row inserted before the first
    scan batch would be both scanned and side-filed."""
    system = System()
    table = make_table(system)
    for pk in (-1, 2**62, "a", 1.5, (1, 2)):
        def body(pk=pk):
            txn = system.txns.begin()
            try:
                yield from table.insert(txn, (pk, "x", 0))
            finally:
                yield from txn.rollback()

        with pytest.raises(StorageError, match="not an int"):
            drive(system, body())
    assert table.rows == {}


def test_iot_refuses_a_unique_secondary_index():
    system = System()
    table = make_table(system, n=3)
    with pytest.raises(ValueError, match="unique"):
        SFIotBuilder(system, table,
                     IndexSpec.of("idx_city", ["city"], unique=True))


def test_iot_secondary_build_static():
    system = System()
    table = make_table(system, n=50)
    builder = city_builder(system, table)
    drive(system, builder.run(), name="builder")
    (index,) = builder.descriptors
    assert index.state is IndexState.AVAILABLE
    assert table.indexes == [index]
    report = audit_index(system, index)
    assert report["entries"] == 50
    assert report["clustering"] == 1.0
    # a done build keeps no sort runs, and the context is gone
    assert "sort:idx_city" not in system.run_stores
    assert "iot" not in system.builds


@pytest.mark.parametrize("rows", [100, 128, 30])
def test_iot_load_charges_every_key(rows):
    """The bulk load costs keys x bulk_load_key_cost on the simulated
    clock, also for the keys after the last full batch of 64."""
    def build_time(key_cost):
        system = System(SystemConfig(bulk_load_key_cost=key_cost))
        table = make_table(system, n=rows)
        started = system.now()
        drive(system, city_builder(system, table).run(), name="builder")
        return system.now() - started

    assert build_time(1.0) - build_time(0.0) == pytest.approx(rows)


def build_under_updates(policy_seed=None):
    """An IOT build racing 60 random insert / delete / update
    transactions (a fifth rolled back); returns the system, audited."""
    system = System(seed=3)
    if policy_seed is not None:
        system.sim.schedule_policy = RandomTiePolicy(seed=policy_seed)
    table = make_table(system, n=120)
    builder = city_builder(system, table)

    def updater():
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
    (index,) = builder.descriptors
    assert index.state is IndexState.AVAILABLE
    audit_index(system, index)
    return system


def test_iot_secondary_build_under_updates():
    system = build_under_updates()
    # the current-key machinery actually routed some changes
    assert system.metrics.get("build.sidefile_drained") > 0


@pytest.mark.parametrize("policy_seed", range(1, 12))
def test_iot_build_under_updates_audits_under_perturbed_schedules(
        policy_seed):
    build_under_updates(policy_seed)


def test_iot_build_reports_spans_and_progress_to_completion():
    """The IOT build is SF's loop, so it reports like one: a scan, load
    and drain span under the build span, and a tracked build ends done."""
    system = System()
    recorder = enable_tracing(system)
    tracker = enable_progress(system)
    table = make_table(system, n=100)
    drive(system, city_builder(system, table).run(), name="builder")
    (state,) = tracker.snapshot().values()
    assert (state["fraction"], state["verdict"], state["mode"]) \
        == (1.0, "done", "iot")
    spans = [e["name"] for e in recorder.events if e["kind"] == "span_end"]
    assert spans == ["scan", "load", "drain", "build"]


def test_iot_rollback_after_build_restores_secondary():
    """Once the index is AVAILABLE, maintenance is direct and logged; a
    rolled-back insert, key-changing update and delete must leave the
    rows and the secondary index as they were."""
    system = System()
    table = make_table(system, n=20)
    builder = city_builder(system, table)
    drive(system, builder.run(), name="builder")
    (index,) = builder.descriptors
    before = dict(table.range_scan())

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (99, "city-new", 0))
        yield from table.update(txn, 3, (3, "city-moved", 30))
        yield from table.delete(txn, 5)
        yield from txn.rollback()

    drive(system, body())
    assert dict(table.range_scan()) == before
    assert audit_index(system, index)["entries"] == 20
    assert system.metrics.get("iot.inserts") == 21
    assert system.metrics.get("iot.updates") == 1
    assert system.metrics.get("iot.deletes") == 1


def test_iot_rollback_after_build_writes_only_clrs():
    """Figure 2 for a completed index: the transaction's own logged key
    changes are undone by the undo chain, so the rollback writes
    compensations only -- no forward maintenance applied a second time."""
    system = System()
    table = make_table(system, n=20)
    builder = city_builder(system, table)
    drive(system, builder.run(), name="builder")
    (index,) = builder.descriptors
    before = dict(table.range_scan())

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (99, "city-new", 0))
        yield from table.update(txn, 3, (3, "city-moved", 30))
        yield from table.delete(txn, 5)
        yield from txn.rollback()
        return txn.txn_id

    txn_id = drive(system, body())
    records = [r for r in system.log.scan() if r.txn_id == txn_id]
    kinds = [r.kind for r in records]
    after_abort = kinds[kinds.index(RecordKind.ABORT) + 1:]
    assert RecordKind.UPDATE not in after_abort
    assert after_abort.count(RecordKind.COMPENSATION) \
        == kinds.index(RecordKind.ABORT)
    assert dict(table.range_scan()) == before
    assert audit_index(system, index)["entries"] == 20


def test_iot_behind_scan_logic():
    """Current-RID after a batch is ``RID(last pk, 1)``: a row is behind
    the scan exactly when its pk is at or below the last one pushed, and
    every row is once the scan is done (Current-RID at infinity)."""
    assert not BuildContext(mode=IOT_MODE).scanned(RID(0, 0))
    system = System()
    table = make_table(system, n=40)
    builder = city_builder(system, table)
    seen = []

    def probe():
        while builder.context is None \
                or builder.context.current_rid == RID(0, 0):
            yield Delay(0.01)
        context = builder.context
        seen.append(context.current_rid)
        seen.append([context.scanned(RID(pk, 0)) for pk in (0, 14, 15, 16)])
        while context.current_rid != INFINITY_RID:
            yield Delay(0.01)
        seen.append(context.scanned(RID(10**6, 0)))

    procs = [system.spawn(probe(), name="probe"),
             system.spawn(builder.run(), name="builder")]
    system.run()
    assert all(proc.error is None for proc in procs)
    assert seen == [RID(15, 1), [True, True, True, False], True]


def test_iot_change_at_the_scan_position_reaches_the_index():
    """A row changed between two scan batches *at* the scan position was
    already pushed into the sort: its change must go to the side-file,
    or the index keeps the old key (and misses the new one)."""
    system = System()
    table = make_table(system, n=40)
    builder = city_builder(system, table)
    moved = []

    def position():
        context = builder.context
        return None if context is None or context.current_rid == RID(0, 0) \
            else rid_page(context.current_rid)

    def updater():
        while position() is None:
            yield Delay(0.01)
        pk = position()
        txn = system.txns.begin()
        yield from table.update(txn, pk, (pk, "moved", 0))
        yield from txn.commit()
        moved.append((pk, position()))

    procs = [system.spawn(builder.run(), name="builder"),
             system.spawn(updater(), name="updater")]
    system.run()
    assert all(proc.error is None for proc in procs)
    # the update landed while the scan still stood at that row
    assert moved == [(15, 15)]
    audit_index(system, builder.descriptors[0])


@pytest.mark.parametrize("crash_after", [5, 20, 60, 120])
def test_restart_with_an_iot_build_in_flight(crash_after):
    """Restart recreates heap tables only: an IOT build's catalog entry,
    side-file and checkpoint must not trip the recovery of a heap table
    whose index is AVAILABLE."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16, merge_fanin=4), seed=5)
    heap = system.create_table("t", ["k", "v"])

    def preload():
        txn = system.txns.begin()
        for i in range(60):
            yield from heap.insert(txn, (i, i % 5))
        yield from txn.commit()

    drive(system, preload())
    drive(system, SFIndexBuilder(system, heap,
                                 IndexSpec.of("idx_k", ["k"])).run())
    table = make_table(system, n=1000)
    started = system.now()
    system.spawn(city_builder(system, table).run(), name="iot-builder")

    def updater():
        for step in range(40):
            yield Delay(1.0)
            txn = system.txns.begin()
            yield from heap.insert(txn, (100 + step, step % 5))
            yield from table.update(txn, step, (step, "moved", step))
            if step % 4 == 3:
                yield from txn.rollback()
            else:
                yield from txn.commit()

    system.spawn(updater(), name="updater")
    run_until_crash(system, started + crash_after)
    assert system.indexes["idx_city"].state is IndexState.BUILDING

    recovered, _state = restart(system, pre_undo=build_pre_undo)
    for builder in resume_builds(recovered):
        drive(recovered, builder.run())
    assert "idx_city" not in recovered.indexes
    report = audit_index(recovered, recovered.indexes["idx_k"])
    assert report["entries"] == len(list(
        recovered.tables["t"].audit_records()))


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
    for page_id, run in system.log.redo_runs(1, system.log.last_lsn):
        for _page_id, op_name, lsn, txn_id, _row, payload in run:
            if op_name.startswith("iot."):
                yield from registry.redo(op_name)(system, lsn, txn_id,
                                                  page_id, payload)
