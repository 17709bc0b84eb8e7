"""Work bound on the uncontended foreground write path.

One record insert is an intent lock, a record lock, two page latches, a
log record, a dirty mark and a charged delay; with one lock wait and no
latch wait in a whole preload, nothing else should run, and a lone
preload transaction -- the one process the kernel could resume -- runs
to its end in the one dispatch that starts it (run to block).  The bound
is in exact call counts (they repeat; host time does not), in the style
of ``test_btree_descent.py``.
"""

import cProfile
import gc
import os
import tracemalloc

import pytest

import repro
from repro.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.system import System
from repro.txn.locks import _LockHead
from repro.wal.records import NO_INFO, _payload_size

ROWS = 2_000
TXN_ROWS = 500
SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


# in first-touch order, which is the order snapshots print in
EXPECTED_COUNTERS = {
    "txn.begins": 4, "lock.requests": 4000, "heap.pages_allocated": 125,
    "latch.requests": 4124, "wal.records": 2008, "wal.records.txn": 2008,
    "wal.bytes": 276256, "wal.bytes.txn": 276256, "heap.inserts": 2000,
    "buffer.hits": 2123, "wal.forces": 4, "txn.commits": 4,
}
EXPECTED_CLOCK = 1004.0
EXPECTED_SEQ = 6132
# the same preload, then an update pass and a delete pass over its rows
EXPECTED_REWRITE_COUNTERS = {
    "txn.begins": 12, "lock.requests": 12000, "heap.pages_allocated": 125,
    "latch.requests": 8124, "wal.records": 6024, "wal.records.txn": 6024,
    "wal.bytes": 828768, "wal.bytes.txn": 828768, "heap.inserts": 2000,
    "buffer.hits": 6123, "wal.forces": 12, "txn.commits": 12,
    "heap.updates": 2000, "heap.deletes": 2000,
}
EXPECTED_REWRITE_CLOCK = 3012.0
EXPECTED_REWRITE_SEQ = 14148


def preload(system, table, rows, held):
    txn = system.txns.begin("preload")
    for row in rows:
        yield from table.insert(txn, row)
    held.append(len(txn.held_locks))
    yield from txn.commit()


def run_preload(held):
    system = System(seed=1)
    table = system.create_table("t", ["k", "a", "p"])
    rows = [(i * 7919 % 100_003, i % 97, f"p{i:06d}") for i in range(ROWS)]
    for start in range(0, ROWS, TXN_ROWS):
        system.spawn(preload(system, table, rows[start:start + TXN_ROWS],
                             held), name="preload")
        system.run()
    return system


@pytest.fixture(scope="module")
def profiled_preload():
    held: list[int] = []
    profiler = cProfile.Profile()
    profiler.enable()
    system = run_preload(held)
    profiler.disable()
    # code object -> call count, for every function defined in src/repro
    calls = {entry.code: entry.callcount for entry in profiler.getstats()
             if not isinstance(entry.code, str)
             and entry.code.co_filename.startswith(SRC)}
    return system, calls, sum(held)


def test_an_uncontended_insert_stays_inside_its_call_budget(
        profiled_preload):
    system, calls, names_held = profiled_preload
    per_row = sum(calls.values()) / ROWS
    # 71.8 before the write-path work, 43.3 after it, 42.26 since the
    # log keeps columns instead of a LogRecord per append, 41.20 since a
    # page fetch reads the table's own PageId instead of asking for one,
    # 28.00 since latches and delays are granted in place, locks are
    # plain calls and a buffer hit is not a generator
    assert per_row <= 28.05, f"{per_row:.2f} repro calls per inserted row"
    # one kernel dispatch per preload transaction (3.07 per row while
    # every latch grant and delay went through the event queue)
    assert calls[Simulator._step.__code__] == ROWS // TXN_ROWS
    # the writer states each record's size; nothing walks a payload
    assert _payload_size.__code__ not in calls
    # heap.inserts, and heap.pages_allocated once a page: everything
    # hotter bumps metrics.counters in place
    assert calls[MetricsRegistry.incr.__code__] <= 2 * ROWS
    # a lock head per name actually held (a record lock per row, the
    # table's IX lock per transaction), none for a request that found one
    assert names_held == ROWS + ROWS // TXN_ROWS
    assert calls[_LockHead.__init__.__code__] == names_held
    assert system.locks._heads == {}


def containers(value) -> int:
    """dicts and lists in a payload, however deep."""
    if isinstance(value, dict):
        return 1 + sum(map(containers, value.values()))
    if isinstance(value, (list, tuple)):
        return isinstance(value, list) + sum(map(containers, value))
    return 0


def test_an_inserted_row_leaves_one_flat_payload_resident():
    """The log is never truncated, so what a row's log record keeps is
    resident for good: its words in the log's columns and a reference to
    the image the page holds (about 1 000 bytes a row when each half had
    its own dict and ``info`` a third, 293 while each record was a
    slotted object, 245 while its RID was a namedtuple, 213 while it was
    an int in a payload tuple, 89 now that the table, RID and visible
    count are columns; lock heads are freed at commit and do not count).
    ``<string>`` is where a namedtuple's generated constructor
    allocates."""
    gc.collect()
    tracemalloc.start()
    system = run_preload([])
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    resident = snapshot.filter_traces([
        tracemalloc.Filter(True, SRC + os.path.join("storage", "table.py")),
        tracemalloc.Filter(True, SRC + os.path.join("wal", "*")),
        tracemalloc.Filter(True, SRC + os.path.join("txn",
                                                    "transaction.py")),
        tracemalloc.Filter(True, "<string>"),
    ])
    per_row = sum(stat.size for stat in resident.statistics("filename")) \
        / ROWS
    assert per_row <= 95, f"{per_row:.0f} resident bytes per inserted row"
    # the log's own share: six 32-bit words and two references a record
    # (156 bytes while each was a slotted object with its LSN int, 40
    # with five words, 44 since a heap row's slot and visible count are
    # the sixth)
    in_wal = snapshot.filter_traces([
        tracemalloc.Filter(True, SRC + os.path.join("wal", "*"))])
    per_record = sum(stat.size for stat in in_wal.statistics("filename")) \
        / system.log.last_lsn
    assert per_record <= 48, f"{per_record:.0f} resident bytes per record"
    records = list(system.log.scan())
    assert all(record.info is NO_INFO for record in records)
    assert sum(containers(record.payload) for record in records) == 0
    rows = list(system.tables["t"].audit_records())
    assert not any(hasattr(record, "__dict__") for _rid, record in rows)
    # a plain insert logs the page's own image: no payload tuple and no
    # RID int of its own
    images = {id(record.values) for _rid, record in rows}
    logged = system.log._refs[1::2]
    inserts = [payload for record, payload in zip(records, logged)
               if record.undo_op == "heap.insert"]
    assert len(inserts) == ROWS
    assert all(id(payload) in images for payload in inserts)
    assert not any(type(ref) is int for ref in system.log._refs)


def test_the_cheaper_path_does_the_same_simulated_work(profiled_preload):
    """Counters, clock and event sequence of the same preload, recorded
    at the commit before the write-path work."""
    system, _calls, _held = profiled_preload
    assert system.metrics.snapshot() == EXPECTED_COUNTERS
    assert list(system.metrics.snapshot()) == list(EXPECTED_COUNTERS)
    assert system.metrics.snapshot_stats() == {}
    assert system.now() == EXPECTED_CLOCK
    assert system.sim._seq == EXPECTED_SEQ
    assert system.log.last_lsn == EXPECTED_COUNTERS["wal.records"]


def rewrite(system, table, rows, delete):
    txn = system.txns.begin("rewrite")
    for rid, record in rows:
        if delete:
            yield from table.delete(txn, rid)
        else:
            k, a, p = record.values
            yield from table.update(txn, rid, (k, a + 1, p))
    yield from txn.commit()


def test_updates_and_deletes_do_the_same_simulated_work():
    """An update pass, then a delete pass, over the preloaded rows:
    counters, clock and event sequence recorded at the commit before
    the one data-page write routine."""
    system = run_preload([])
    table = system.tables["t"]
    rows = list(table.audit_records())
    for delete in (False, True):
        for start in range(0, ROWS, TXN_ROWS):
            system.spawn(rewrite(system, table, rows[start:start + TXN_ROWS],
                                 delete), name="rewrite")
            system.run()
    assert list(table.audit_records()) == []
    assert system.metrics.snapshot() == EXPECTED_REWRITE_COUNTERS
    assert list(system.metrics.snapshot()) == list(EXPECTED_REWRITE_COUNTERS)
    assert system.now() == EXPECTED_REWRITE_CLOCK
    assert system.sim._seq == EXPECTED_REWRITE_SEQ

