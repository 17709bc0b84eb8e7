"""Unit tests for the side-file (repro.sidefile)."""

import pytest

from repro.faultinject import FaultInjector, FaultPlan, InjectedCrash
from repro.sidefile import SideFile, register_sidefile_operations
from repro.storage import RID
from repro.sweep import Scenario, run_plan
from repro.system import System, SystemConfig
from repro.wal import RecordKind


def drive(system, body):
    proc = system.spawn(body, name="driver")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_append_writes_redo_only_record():
    system = System()
    sidefile = SideFile(system, "idx")
    system.sidefiles["idx"] = sidefile

    def body():
        txn = system.txns.begin()
        entry = yield from sidefile.append(txn, "insert", (5,), RID(0, 0))
        yield from txn.commit()
        return entry

    entry = drive(system, body())
    assert entry.operation == "insert"
    record = system.log.get(entry.lsn)
    assert record.is_redo_only
    assert record.redo[0] == "sidefile.append"
    assert len(sidefile) == 1


def test_append_order_preserved():
    system = System()
    sidefile = SideFile(system, "idx")

    def body():
        txn = system.txns.begin()
        for i in range(5):
            sidefile.append_sync(txn, "insert", (i,), RID(0, i))
        yield from txn.commit()

    drive(system, body())
    keys = [entry.key_value for entry in sidefile.entries]
    assert keys == [(i,) for i in range(5)]


def test_rollback_does_not_remove_appends():
    """Side-file appends are redo-only: a rollback leaves them in place
    (the compensating entry mechanism handles semantics, Figure 2)."""
    system = System()
    sidefile = SideFile(system, "idx")

    def body():
        txn = system.txns.begin()
        sidefile.append_sync(txn, "insert", (5,), RID(0, 0))
        yield from txn.rollback()

    drive(system, body())
    assert len(sidefile) == 1


def test_crash_truncates_to_durable_prefix():
    system = System()
    sidefile = SideFile(system, "idx")

    def body():
        txn = system.txns.begin()
        sidefile.append_sync(txn, "insert", (1,), RID(0, 0))
        sidefile.append_sync(txn, "insert", (2,), RID(0, 1))
        sidefile.force()
        sidefile.append_sync(txn, "insert", (3,), RID(0, 2))
        yield from txn.commit()

    drive(system, body())
    sidefile.crash()
    assert [e.key_value for e in sidefile.entries] == [(1,), (2,)]


def test_redo_replays_lost_appends_idempotently():
    system = System()
    register_sidefile_operations(system)
    sidefile = SideFile(system, "idx")
    system.sidefiles["idx"] = sidefile

    def body():
        txn = system.txns.begin()
        sidefile.append_sync(txn, "insert", (1,), RID(0, 0))
        sidefile.force()
        sidefile.append_sync(txn, "delete", (2,), RID(0, 1))
        yield from txn.commit()  # forces the log

    drive(system, body())
    sidefile.crash()
    assert len(sidefile) == 1
    # replay the WAL through the registered handler, twice
    for _round in range(2):
        for record in system.log.scan():
            if record.redo and record.redo[0] == "sidefile.append":
                sidefile.redo_append(record.lsn, record.txn_id,
                                     record.payload)
    assert len(sidefile) == 2
    assert sidefile.entries[1].operation == "delete"
    assert system.metrics.get("recovery.sidefile_redos") == 1


def test_read_from_position():
    system = System()
    sidefile = SideFile(system, "idx")

    def body():
        txn = system.txns.begin()
        for i in range(6):
            sidefile.append_sync(txn, "insert", (i,), RID(0, i))
        yield from txn.commit()

    drive(system, body())
    got = list(sidefile.read_from(4))
    assert [pos for pos, _e in got] == [4, 5]
    assert [e.key_value for _p, e in got] == [(4,), (5,)]


def test_force_flushes_log_up_to_last_entry():
    system = System()
    sidefile = SideFile(system, "idx")

    def body():
        txn = system.txns.begin()
        sidefile.append_sync(txn, "insert", (1,), RID(0, 0))
        return txn
        yield  # pragma: no cover

    drive(system, body())
    assert system.log.flushed_lsn < sidefile.entries[-1].lsn
    sidefile.force()
    assert system.log.flushed_lsn >= sidefile.entries[-1].lsn


# -- force: the log is flushed before the durable length advances ------------
# (``SideFile.force`` used to advance ``durable_length`` first, so a crash
# inside the flush left "durable" entries whose redo-only append records
# never reached stable storage)


def test_sidefile_force_flushes_log_before_advancing_durable_length():
    """A crash inside force()'s log flush must not leave "durable"
    side-file entries whose append records never made the stable log."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    register_sidefile_operations(system)
    sidefile = SideFile(system, "idx")
    system.sidefiles["idx"] = sidefile
    txn = system.txns.begin("writer")
    for i in range(3):
        sidefile.append_sync(txn, "insert", (i,), RID(0, i))
    assert system.log.flushed_lsn < sidefile.entries[-1].lsn

    injector = FaultInjector(FaultPlan("wal.force.before", 1))
    injector.install(system)
    with pytest.raises(InjectedCrash):
        sidefile.force()
    injector.uninstall()

    system.crash()
    # WAL rule: every entry that survived the crash must be re-creatable
    # from the stable log prefix.
    flushed = system.log.flushed_lsn
    assert all(entry.lsn <= flushed for entry in sidefile.entries)
    assert sidefile.durable_length == len(sidefile.entries)


def test_sidefile_force_crash_recovers_clean_in_sweep():
    """End to end: crash at the sidefile.force site during an SF build,
    recover, resume, audit."""
    config = Scenario(builder="sf", records=150, operations=60)
    result = run_plan(config, FaultPlan("sidefile.force", 1))
    assert result.fired, result.detail
    assert result.passed, result.detail
