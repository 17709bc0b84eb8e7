"""Work bound on the build's key pipeline.

A key's way from its data page into a leaf is one extraction, one trip
through the sort's workspace, a merge pass or two, and one index entry;
between the layers it travels in batches (a page of keys into the sort, a
yield's worth out of the merge and into the loader), so what runs per key
is C: ``itemgetter``, run formation's ``heapq``, the merge's one stable
``sorted()`` and the order checks' sorted copies, list slices.  The bound is
in exact call counts (they repeat; host time does not), in the style of
``test_write_path_budget.py``.

Under NSF the key's last stop is also a log record ("the log record can
contain multiple keys", section 2.2.3), resident until the log is: it
holds the pair the merger handed over, not a copy, and the bound on what
the tree keeps per key is in traced bytes.
"""

import cProfile
import os
import tracemalloc

import pytest

import repro
from repro.btree.tree import IX_ACTION, IX_KEY
from repro.core import IndexSpec, get_builder
from repro.sort import RestartableMerger
from repro.system import System, SystemConfig

ROWS = 8_000
TXN_ROWS = 500
NSF_ROWS = 4_000
SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
TREE_PY = os.path.join(SRC, "btree", "tree.py")


# in first-touch order, which is the order snapshots print in
EXPECTED_COUNTERS = {
    "txn.begins": 17, "lock.requests": 16000, "heap.pages_allocated": 500,
    "latch.requests": 16999, "wal.records": 8039, "wal.records.txn": 8034,
    "wal.bytes": 1105248, "wal.bytes.txn": 1105088, "heap.inserts": 8000,
    "buffer.hits": 8998, "wal.forces": 24, "txn.commits": 17,
    "catalog.index_descriptors": 1, "index.forces": 6,
    "wal.records.system": 5, "wal.bytes.system": 160,
    "build.utility_checkpoints": 5, "build.pages_scanned": 500,
    "index.pages_allocated": 535, "index.inserts.bulk": 8000,
    "index.bulk_root_growths": 3, "index.bulk_loads_finished": 1,
    "rebuild.runs_sealed": 1,
}
EXPECTED_CLOCK = 4817.000000000068
EXPECTED_SEQ = 25658


def preload(system, table, rows):
    txn = system.txns.begin("preload")
    for row in rows:
        yield from table.insert(txn, row)
    yield from txn.commit()


def preloaded(rows):
    system = System(SystemConfig(page_capacity=16, leaf_capacity=16,
                                 branch_capacity=16, sort_workspace=256,
                                 merge_fanin=8), seed=1)
    table = system.create_table("t", ["k", "a", "p"])
    rows = [(i * 7919 % 100_003, i % 97, f"p{i:06d}") for i in range(rows)]
    for start in range(0, len(rows), TXN_ROWS):
        system.spawn(preload(system, table, rows[start:start + TXN_ROWS]),
                     name="preload")
        system.run()
    return system, table


@pytest.fixture(scope="module")
def profiled_build():
    system, table = preloaded(ROWS)
    builder = get_builder("sf")(system, table,
                                [IndexSpec.of("idx_k", ["k"])])
    profiler = cProfile.Profile()
    profiler.enable()
    system.spawn(builder.run(), name="ib")
    system.run()
    profiler.disable()
    # package (first path component under src/repro) -> calls into it
    calls: dict[str, int] = {}
    for entry in profiler.getstats():
        if isinstance(entry.code, str) \
                or not entry.code.co_filename.startswith(SRC):
            continue
        package = entry.code.co_filename[len(SRC):].split(os.sep)[0]
        calls[package] = calls.get(package, 0) + entry.callcount
    return system, calls


def test_a_built_key_stays_inside_its_call_budget(profiled_build):
    system, calls = profiled_build
    keys = system.metrics.get("index.inserts.bulk")
    assert keys == ROWS
    per_key = sum(calls.values()) / keys
    # 24.95 with a tournament fixup, three run appends and a loader
    # append per key; 3.9 with the batches
    assert per_key <= 9, f"{per_key:.2f} repro calls per built key"
    # 14.56 before: the sort is entered per page and per yield, not per key
    assert calls["sort"] / keys <= 1
    # 1.57 while each key became a KeyEntry and a RID; 0.41 now that
    # the merger's pairs go into the leaves as they are: the calls left
    # are per batch, leaf and page
    assert calls["btree"] / keys <= 0.45
    assert calls["storage"] / keys <= 1


def test_the_cheaper_path_does_the_same_simulated_work(profiled_build):
    """Counters, clock and event sequence of the same build, recorded at
    the commit before the batches."""
    system, _calls = profiled_build
    assert system.metrics.snapshot() == EXPECTED_COUNTERS
    assert list(system.metrics.snapshot()) == list(EXPECTED_COUNTERS)
    assert system.now() == EXPECTED_CLOCK
    assert system.sim._seq == EXPECTED_SEQ
    index = system.indexes["idx_k"]
    assert index.is_available
    assert index.tree.key_count() == ROWS


def test_an_ib_log_record_holds_the_mergers_own_pairs(monkeypatch):
    system, table = preloaded(NSF_ROWS)
    handed_over = []
    pop_many = RestartableMerger.pop_many

    def recording_pop_many(merger, limit):
        batch = pop_many(merger, limit)
        handed_over.extend(batch)
        return batch

    monkeypatch.setattr(RestartableMerger, "pop_many", recording_pop_many)
    builder = get_builder("nsf")(system, table,
                                 [IndexSpec.of("idx_k", ["k"])])
    tracemalloc.start()
    try:
        system.spawn(builder.run(), name="ib")
        system.run()
        resident = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, TREE_PY)])
    finally:
        tracemalloc.stop()
    keys = system.metrics.get("index.inserts.ib")
    assert keys == NSF_ROWS == len(handed_over)
    logged = [pair for record in system.log.scan()
              if record.redo_op == "index.apply"
              and record.payload[IX_ACTION] == "insert_many"
              for pair in record.payload[IX_KEY]]
    # no traffic, so nothing was rejected: every key popped is logged,
    # in order, as the very object popped
    assert len(logged) == keys
    assert all(mine is theirs for mine, theirs in zip(logged, handed_over))
    # the leaves hold the same objects
    entries = [entry for leaf in system.indexes["idx_k"].tree.leaf_chain()
               for entry in leaf.entries]
    assert len(entries) == keys
    assert all(mine is theirs for mine, theirs in zip(entries, handed_over))
    # what the build left allocated by tree.py: the leaves' and the
    # stable image's lists and the log records, per key.  311 bytes
    # while each logged key was a fresh (key, tuple(rid)) pair, 156 while
    # each entry was a KeyEntry and a RID, 85 now.
    per_key = sum(trace.size for trace in resident.traces) / keys
    assert per_key <= 90, f"{per_key:.0f} bytes resident per IB key"


def test_a_bulk_loaded_leaf_holds_the_mergers_own_pairs(monkeypatch):
    """Section 2.3.1's load appends the sorted keys: every entry of an
    SF-built tree is the very pair the final merge handed the loader."""
    system, table = preloaded(NSF_ROWS)
    handed_over = []
    pop_many = RestartableMerger.pop_many

    def recording_pop_many(merger, limit):
        batch = pop_many(merger, limit)
        handed_over.extend(batch)
        return batch

    monkeypatch.setattr(RestartableMerger, "pop_many", recording_pop_many)
    builder = get_builder("sf")(system, table,
                                [IndexSpec.of("idx_k", ["k"])])
    system.spawn(builder.run(), name="ib")
    system.run()
    entries = [entry for leaf in system.indexes["idx_k"].tree.leaf_chain()
               for entry in leaf.entries]
    assert len(entries) == len(handed_over) == NSF_ROWS
    assert all(mine is theirs for mine, theirs in zip(entries, handed_over))
