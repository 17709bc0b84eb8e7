"""Unit tests for the WAL (repro.wal)."""

import pytest

from repro.errors import WALError
from repro.wal import LogManager, OperationRegistry, RecordKind


def test_lsns_are_dense_and_increasing():
    log = LogManager()
    r1 = log.append(1, RecordKind.UPDATE, redo=("x", {}))
    r2 = log.append(1, RecordKind.COMMIT)
    assert (r1.lsn, r2.lsn) == (1, 2)
    assert log.last_lsn == 2


def test_record_flavours():
    log = LogManager()
    ur = log.append(1, RecordKind.UPDATE, redo=("a", {}), undo=("b", {}))
    ro = log.append(1, RecordKind.UPDATE, redo=("a", {}))
    uo = log.append(1, RecordKind.UPDATE, undo=("b", {}))
    assert ur.is_undo_redo and not ur.is_redo_only and not ur.is_undo_only
    assert ro.is_redo_only and not ro.is_undo_redo
    assert uo.is_undo_only and not uo.is_undo_redo


def test_flush_and_crash_drop_volatile_tail():
    log = LogManager()
    for i in range(5):
        log.append(1, RecordKind.UPDATE, redo=("x", {"i": i}))
    log.flush(3)
    assert log.flushed_lsn == 3
    log.crash()
    assert log.last_lsn == 3
    assert [r.redo[1]["i"] for r in log.scan()] == [0, 1, 2]


def test_flush_to_future_lsn_rejected():
    log = LogManager()
    log.append(1, RecordKind.UPDATE, redo=("x", {}))
    with pytest.raises(WALError):
        log.flush(99)


def test_flush_is_monotonic():
    log = LogManager()
    for _ in range(4):
        log.append(1, RecordKind.UPDATE, redo=("x", {}))
    log.flush(3)
    log.flush(1)  # no-op, must not regress
    assert log.flushed_lsn == 3


def test_scan_range():
    log = LogManager()
    for i in range(6):
        log.append(1, RecordKind.UPDATE, redo=("x", {"i": i}))
    got = [r.redo[1]["i"] for r in log.scan(from_lsn=2, to_lsn=4)]
    assert got == [1, 2, 3]


def test_get_out_of_range():
    log = LogManager()
    with pytest.raises(WALError):
        log.get(1)


def test_per_writer_metrics():
    log = LogManager()
    log.append(1, RecordKind.UPDATE, redo=("x", {}), writer="txn")
    log.append(None, RecordKind.UPDATE, redo=("x", {}), writer="ib")
    log.append(None, RecordKind.UPDATE, redo=("x", {}), writer="ib")
    assert log.metrics.get("wal.records") == 3
    assert log.metrics.get("wal.records.ib") == 2
    assert log.metrics.get("wal.records.txn") == 1
    assert log.metrics.get("wal.bytes.ib") > 0
    sizes = [record.size for record in log.scan()]
    assert log.metrics.get("wal.bytes") == sum(sizes)
    assert log.metrics.get("wal.bytes.ib") == sum(sizes[1:])


def test_checkpoint_master_record_and_survival():
    log = LogManager()
    log.append(1, RecordKind.UPDATE, redo=("x", {}))
    cp = log.write_checkpoint({"1": "active"}, {}, {"highest_key": 42})
    log.append(1, RecordKind.UPDATE, redo=("x", {}))
    log.crash()  # tail after forced checkpoint is lost
    survivor = log.latest_checkpoint()
    assert survivor is not None
    assert survivor.lsn == cp.lsn
    assert survivor.info["utility_state"]["highest_key"] == 42


def test_operation_registry_dispatch_and_errors():
    reg = OperationRegistry()
    hits = []
    reg.register("op.a", redo=lambda s, r: hits.append("redo"),
                 undo=lambda s, t, r: hits.append("undo"))
    reg.redo("op.a")(None, None)
    reg.undo("op.a")(None, None, None)
    assert hits == ["redo", "undo"]
    assert reg.knows("op.a") and not reg.knows("op.b")
    with pytest.raises(WALError):
        reg.redo("nope")
    with pytest.raises(WALError):
        reg.undo("op.b")
    with pytest.raises(WALError):
        reg.register("op.a", redo=lambda s, r: None)


def test_the_writer_states_the_size_of_a_flat_payload():
    log = LogManager()
    payload = ("t", (0, 1), (7,))
    record = log.append(1, RecordKind.UPDATE, redo=("a", payload),
                        undo=("b", payload), size=104)
    assert record.size == 104 and log.metrics.get("wal.bytes") == 104
    assert record.redo == ("a", payload) and record.undo == ("b", payload)
    assert record.payload is payload and record.is_undo_redo
    with pytest.raises(AttributeError):  # only a mapping can be measured
        log.append(1, RecordKind.UPDATE, redo=("a", payload))


def test_the_halves_of_a_record_share_one_payload():
    log = LogManager()
    with pytest.raises(WALError):
        log.append(1, RecordKind.UPDATE, redo=("a", {"v": 1}),
                   undo=("b", {"v": 2}))


def test_info_of_a_record_written_without_one_is_read_only():
    log = LogManager()
    commit = log.append(1, RecordKind.COMMIT)
    end = log.append(1, RecordKind.END)
    assert commit.info is end.info and not commit.info
    with pytest.raises(TypeError):
        commit.info["k"] = 1
    own = log.append(1, RecordKind.UTILITY, info={"k": 1})
    assert own.info == {"k": 1}


def test_record_size_counts_payloads():
    log = LogManager()
    small = log.append(1, RecordKind.UPDATE, redo=("x", {"v": 1}))
    big = log.append(1, RecordKind.UPDATE,
                     redo=("x", {"v": list(range(100))}),
                     undo=("y", {"v": list(range(100))}))
    assert big.size > small.size
