"""Integration tests: heap tables + transactions + locks + rollback."""

import pytest

from repro.errors import DeadlockVictim, RecordNotFoundError
from repro.storage import RID
from repro.storage.rid import rid_page
from repro.storage.table import H_VISIBLE
from repro.system import System, SystemConfig
from repro.txn import TxnState
from repro.wal import RecordKind


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_insert_read_roundtrip():
    system = System()
    table = system.create_table("emp", ["id", "name"])

    def body():
        txn = system.txns.begin()
        rid = yield from table.insert(txn, (1, "ada"))
        got = yield from table.read(txn, rid)
        yield from txn.commit()
        return rid, got.values

    rid, values = drive(system, body())
    assert values == (1, "ada")
    assert rid == RID(0, 0)
    assert system.metrics.get("heap.inserts") == 1
    assert system.metrics.get("txn.commits") == 1


def test_inserts_fill_pages_then_allocate():
    system = System(SystemConfig(page_capacity=2))
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        rids = []
        for i in range(5):
            rid = yield from table.insert(txn, (i,))
            rids.append(rid)
        yield from txn.commit()
        return rids

    rids = drive(system, body())
    assert [rid_page(r) for r in rids] == [0, 0, 1, 1, 2]
    assert table.page_count == 3


def test_update_and_delete():
    system = System()
    table = system.create_table("t", ["k", "v"])

    def body():
        txn = system.txns.begin()
        rid = yield from table.insert(txn, (1, "old"))
        old, new = yield from table.update(txn, rid, (1, "new"))
        assert old.values == (1, "old")
        deleted = yield from table.delete(txn, rid)
        assert deleted.values == (1, "new")
        yield from txn.commit()
        return rid

    rid = drive(system, body())
    assert list(table.audit_records()) == []


def test_rollback_of_insert_removes_record():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.rollback()

    drive(system, body())
    assert list(table.audit_records()) == []
    assert system.metrics.get("txn.rollbacks") == 1


def test_rollback_of_delete_restores_record():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        t1 = system.txns.begin()
        rid = yield from table.insert(t1, (1,))
        yield from t1.commit()
        t2 = system.txns.begin()
        yield from table.delete(t2, rid)
        yield from t2.rollback()
        return rid

    drive(system, body())
    records = [rec.values for _rid, rec in table.audit_records()]
    assert records == [(1,)]


def test_rollback_of_update_restores_old_values():
    system = System()
    table = system.create_table("t", ["k", "v"])

    def body():
        t1 = system.txns.begin()
        rid = yield from table.insert(t1, (1, "original"))
        yield from t1.commit()
        t2 = system.txns.begin()
        yield from table.update(t2, rid, (1, "changed"))
        yield from t2.rollback()

    drive(system, body())
    records = [rec.values for _rid, rec in table.audit_records()]
    assert records == [(1, "original")]


def test_rollback_writes_clrs_with_undo_next():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from table.insert(txn, (2,))
        yield from txn.rollback()

    drive(system, body())
    clrs = [r for r in system.log.scan()
            if r.kind is RecordKind.COMPENSATION]
    assert len(clrs) == 2
    # The CLR for the *second* insert points back past it, at the first.
    updates = [r for r in system.log.scan() if r.kind is RecordKind.UPDATE]
    assert clrs[0].undo_next_lsn == updates[0].lsn


def test_x_lock_blocks_conflicting_writer_until_commit():
    system = System()
    table = system.create_table("t", ["k", "v"])
    order = []

    def setup():
        txn = system.txns.begin()
        rid = yield from table.insert(txn, (1, "v0"))
        yield from txn.commit()
        return rid

    rid = drive(system, setup())

    def writer1():
        txn = system.txns.begin("w1")
        yield from table.update(txn, rid, (1, "v1"))
        order.append(("w1-updated", system.now()))
        from repro.sim import Delay
        yield Delay(50)
        yield from txn.commit()
        order.append(("w1-committed", system.now()))

    def writer2():
        from repro.sim import Delay
        yield Delay(1)
        txn = system.txns.begin("w2")
        yield from table.update(txn, rid, (1, "v2"))
        order.append(("w2-updated", system.now()))
        yield from txn.commit()

    system.spawn(writer1(), name="w1")
    system.spawn(writer2(), name="w2")
    system.run()
    labels = [label for label, _t in order]
    assert labels == ["w1-updated", "w1-committed", "w2-updated"]
    records = [rec.values for _rid, rec in table.audit_records()]
    assert records == [(1, "v2")]


def test_deadlock_detected_and_victim_aborted():
    system = System()
    table = system.create_table("t", ["k"])

    def setup():
        txn = system.txns.begin()
        r1 = yield from table.insert(txn, (1,))
        r2 = yield from table.insert(txn, (2,))
        yield from txn.commit()
        return r1, r2

    r1, r2 = drive(system, setup())
    outcomes = {}

    def make(name, first, second):
        def body():
            from repro.sim import Delay
            txn = system.txns.begin(name)
            try:
                yield from table.update(txn, first, (99,))
                yield Delay(5)
                yield from table.update(txn, second, (99,))
                yield from txn.commit()
                outcomes[name] = "committed"
            except DeadlockVictim:
                yield from txn.rollback()
                outcomes[name] = "victim"
        return body

    system.spawn(make("a", r1, r2)(), name="a")
    system.spawn(make("b", r2, r1)(), name="b")
    system.run()
    assert sorted(outcomes.values()) == ["committed", "victim"]
    assert system.metrics.get("lock.deadlocks") == 1


def test_commit_forces_log():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.commit()

    drive(system, body())
    commit = next(r for r in system.log.scan()
                  if r.kind is RecordKind.COMMIT)
    assert system.log.flushed_lsn >= commit.lsn


def test_commit_lsn_tracks_oldest_active():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        t1 = system.txns.begin()
        yield from table.insert(t1, (1,))
        first = t1.first_lsn
        assert system.txns.commit_lsn() == first
        t2 = system.txns.begin()
        yield from table.insert(t2, (2,))
        assert system.txns.commit_lsn() == first
        yield from t1.commit()
        assert system.txns.commit_lsn() == t2.first_lsn
        yield from t2.commit()
        assert system.txns.commit_lsn() == system.log.last_lsn + 1

    drive(system, body())


def test_visible_count_logged_as_zero_without_indexes():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (1,))
        yield from txn.commit()

    drive(system, body())
    update = next(r for r in system.log.scan()
                  if r.kind is RecordKind.UPDATE)
    assert update.payload[H_VISIBLE] == 0


def test_read_of_missing_record_raises():
    system = System()
    table = system.create_table("t", ["k"])

    def setup():
        txn = system.txns.begin()
        rid = yield from table.insert(txn, (1,))
        yield from table.delete(txn, rid)
        yield from txn.commit()
        return rid

    rid = drive(system, setup())

    def body():
        txn = system.txns.begin()
        try:
            yield from table.read(txn, rid)
        finally:
            yield from txn.commit()

    with pytest.raises(RecordNotFoundError):
        drive(system, body())


def test_insert_at_reuses_freed_slot():
    system = System()
    table = system.create_table("t", ["k"])

    def body():
        t1 = system.txns.begin()
        rid = yield from table.insert(t1, (1,))
        yield from table.delete(t1, rid)
        yield from t1.commit()
        t2 = system.txns.begin()
        again = yield from table.insert_at(t2, rid, (2,))
        yield from t2.commit()
        return rid, again

    rid, again = drive(system, body())
    assert rid == again
    records = [rec.values for _rid, rec in table.audit_records()]
    assert records == [(2,)]
