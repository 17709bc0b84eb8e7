"""Crash and restart recovery tests (ARIES-lite + utility resume)."""

import pytest

from repro.core import (
    BuildOptions,
    IndexSpec,
    NSFIndexBuilder,
    SFIndexBuilder,
    build_pre_undo,
    resume_build,
)
from repro.recovery import restart, run_until_crash
from repro.storage import RID
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.wal import RecordKind
from repro.workloads import WorkloadDriver, WorkloadSpec


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def table_contents(system, name):
    return sorted(rec.values for _rid, rec
                  in system.tables[name].audit_records())


# -- plain heap recovery ----------------------------------------------------


def test_committed_work_survives_crash():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        for i in range(5):
            yield from table.insert(txn, (i,))
        yield from txn.commit()

    drive(system, body())
    system.crash()
    recovered, _state = restart(system)
    assert table_contents(recovered, "t") == [(i,) for i in range(5)]


def test_counters_follow_the_registry_rebound_by_restart():
    """The log and disk outlive the crash and ``System.__init__`` points
    them at the new system's registry, so whoever counts in place must
    read ``self.metrics`` when it counts, not when it was built."""
    system = System()
    table = system.create_table("t", ["k"])

    def insert(target, table, keys):
        txn = target.txns.begin()
        for k in keys:
            yield from table.insert(txn, (k,))
        yield from txn.commit()

    drive(system, insert(system, table, range(5)))
    old = system.metrics.snapshot()
    assert old["wal.records"] == 7
    system.crash()
    recovered, _state = restart(system)
    assert recovered.log is system.log
    assert recovered.log.metrics is recovered.metrics
    before = recovered.metrics.snapshot()
    first_new = recovered.log.last_lsn + 1
    drive(recovered, insert(recovered, recovered.tables["t"], range(5, 8)))
    delta = recovered.metrics.delta(before)
    logged = sum(r.size for r in recovered.log.scan(from_lsn=first_new))
    assert {name: delta[name] for name in delta
            if name.startswith("wal.")} == {
        "wal.records": 5, "wal.records.txn": 5,
        "wal.bytes": logged, "wal.bytes.txn": logged, "wal.forces": 1}
    assert delta["lock.requests"] == 6
    assert delta["latch.requests"] == 6
    assert delta["buffer.hits"] == 3
    # nothing leaked into the crashed system's registry
    assert {name: value for name, value in system.metrics.snapshot().items()
            if name != "system.crashes"} == old


def test_uncommitted_work_rolled_back_on_restart():
    system = System()
    table = system.create_table("t", ["k"])

    def committed():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.commit()

    drive(system, committed())

    def uncommitted():
        txn = system.txns.begin()
        yield from table.insert(txn, (2,))
        yield from table.insert(txn, (3,))
        # force the log so the loser's records survive, then "hang"
        system.log.flush()
        return txn
        yield  # pragma: no cover

    drive(system, uncommitted())
    system.crash()
    recovered, _state = restart(system)
    assert table_contents(recovered, "t") == [(1,)]
    assert recovered.metrics.get("recovery.losers_rolled_back") == 1


def test_unflushed_committed_tail_is_lost_but_consistent():
    """A commit whose log force never happened does not survive -- but the
    database is still consistent (the txn is treated as a loser)."""
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.commit()
        txn2 = system.txns.begin()
        yield from table.insert(txn2, (2,))
        # no commit, no flush: entirely volatile

    drive(system, body())
    system.crash()
    recovered, _state = restart(system)
    assert table_contents(recovered, "t") == [(1,)]


def test_redo_recreates_lost_pages():
    """A page allocated and logged but never written to disk must be
    rebuilt from the WAL."""
    system = System(SystemConfig(page_capacity=2))
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        for i in range(7):  # 4 pages at capacity 2
            yield from table.insert(txn, (i,))
        yield from txn.commit()

    drive(system, body())
    assert not system.disk.has_page(table.page_id(3))  # never flushed
    system.crash()
    recovered, _state = restart(system)
    assert table_contents(recovered, "t") == [(i,) for i in range(7)]
    assert recovered.tables["t"].page_count == 4


def test_restart_is_idempotent_after_second_crash():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.commit()
        loser = system.txns.begin()
        yield from table.insert(loser, (2,))
        system.log.flush()

    drive(system, body())
    system.crash()
    first, _ = restart(system)
    first.crash()
    second, _ = restart(first)
    assert table_contents(second, "t") == [(1,)]


@pytest.mark.parametrize("checkpoint_last", [False, True])
def test_transaction_ids_stay_unique_across_restart(checkpoint_last):
    """A transaction begun after restart gets an id above every id in
    the log -- also when the master checkpoint lies after the last
    transaction's records and the analysis scan meets none of them."""
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        for i in range(3):
            txn = system.txns.begin()
            yield from table.insert(txn, (i,))
            yield from txn.commit()

    drive(system, body())
    if checkpoint_last:
        system.checkpoint()
    system.log.flush()
    system.crash()
    recovered, _state = restart(system)
    logged = {record.txn_id for record in recovered.log.scan()
              if record.txn_id is not None}
    assert logged == {1, 2, 3}
    assert recovered.txns.begin().txn_id == 4


def test_clr_prevents_double_undo():
    """Crash *during* rollback: restart must not undo twice."""
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        t0 = system.txns.begin()
        rid = yield from table.insert(t0, (1,))
        yield from t0.commit()
        loser = system.txns.begin()
        yield from table.update(loser, rid, (2,))
        yield from table.delete(loser, rid)
        # partial rollback: undo only the delete, then crash
        record = system.log.get(loser.last_lsn)
        handler = system.log.operations.undo(record.undo[0])
        clr_redo, clr_size, page, row = yield from handler(system, loser,
                                                           record)
        clr = system.log.get(loser.log(
            RecordKind.COMPENSATION, redo=clr_redo, size=clr_size,
            page_id=page.page_id, undo_next_lsn=record.prev_lsn, row=row))
        system.buffer.mark_dirty(page, clr.lsn)
        system.log.flush()

    drive(system, body())
    system.crash()
    recovered, _ = restart(system)
    # the loser's update AND delete are both undone exactly once
    assert table_contents(recovered, "t") == [(1,)]


# -- build crash / resume, per phase ---------------------------------------------


def build_crash_resume(builder_cls, crash_at, seed=7, preload=300,
                       operations=40):
    """Run a build under load, crash at ``crash_at`` (simulated time),
    restart, resume the build, and return the recovered system."""
    config = SystemConfig(page_capacity=8, leaf_capacity=8,
                          sort_workspace=16, merge_fanin=4)
    system = System(config, seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=operations, workers=2,
                        rollback_fraction=0.15, think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    drive(system, driver.preload(preload), name="preload")

    from repro.core import BuildOptions
    options = BuildOptions(checkpoint_every_pages=8,
                           checkpoint_every_keys=64,
                           commit_every_keys=32)
    builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]),
                          options=options)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    # crash_at is relative to the moment the build starts
    run_until_crash(system, system.now() + crash_at)

    recovered, utility_state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, utility_state)
    if resumed is not None:
        proc = recovered.spawn(resumed.run(), name="resumed-builder")
        recovered.run()
        if proc.error is not None:
            raise proc.error
    return recovered, utility_state


@pytest.mark.parametrize("builder_cls", [NSFIndexBuilder, SFIndexBuilder])
@pytest.mark.parametrize("crash_at", [40, 150, 400, 900])
def test_build_crash_and_resume_yields_consistent_index(builder_cls,
                                                        crash_at):
    recovered, state = build_crash_resume(builder_cls, crash_at)
    descriptor = recovered.indexes.get("idx")
    if descriptor is None:
        pytest.skip("crash before descriptor creation; nothing to resume")
    audit_index(recovered, descriptor)


@pytest.mark.parametrize("builder_cls", [NSFIndexBuilder, SFIndexBuilder])
def test_crash_after_completion_keeps_index(builder_cls):
    recovered, state = build_crash_resume(builder_cls, crash_at=100_000)
    assert state.get("phase") == "done"
    audit_index(recovered, recovered.indexes["idx"])


def test_scan_checkpoint_limits_rescan():
    """Section 5: with scan checkpoints, the resumed scan starts from the
    checkpointed page, not page zero."""
    recovered, state = build_crash_resume(SFIndexBuilder, crash_at=120,
                                          preload=600)
    if state.get("phase") == "scan":
        assert state.get("next_page", 0) > 0
    audit_index(recovered, recovered.indexes["idx"])


# -- IB rollback must not destroy a deleter's tombstone ----------------------
# (IB's rollback physically removed entries its ``insert_many`` had added,
# including ones a concurrent committed deleter had since pseudo-deleted;
# destroying that tombstone let the resumed build re-insert a key whose
# record was gone)


def test_ib_rollback_preserves_concurrent_delete_tombstone():
    """Crash NSF mid-insert so IB's in-flight batch is a loser, where a
    concurrent committed transaction deleted one of the batch's records
    (heap delete + index pseudo-delete) before the crash.  IB's undo
    used to physically remove the whole batch -- tombstone included --
    so the resumed build re-inserted the deleted key and the audit saw
    a spurious entry.  Found by the crash-anywhere property sweep
    (nsf, seed=0, crash 28 ticks into the build)."""
    from repro.recovery import run_until_crash
    from repro.workloads import WorkloadDriver, WorkloadSpec

    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16, merge_fanin=4),
                    seed=0)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=25, workers=2, think_time=1.0,
                        rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=0)
    pre = system.spawn(driver.preload(200), name="preload")
    system.run()
    assert pre.error is None

    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_pages=8,
                             checkpoint_every_keys=48,
                             commit_every_keys=24))
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    run_until_crash(system, system.now() + 28.0)

    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert resumed is not None
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    if proc.error is not None:
        raise proc.error
    audit_index(recovered, recovered.indexes["idx"])
