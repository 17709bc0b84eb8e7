"""A RID is one int, and a held lock carries no empty wait queue.

The ladder build's two memory peaks are a one-transaction preload (an X
lock held on every row) and the built index.  At either, the largest
lines of a tracemalloc snapshot used to include a RID namedtuple per row
(made by the generated constructor, whose frame is ``<string>``), a raw
``(page, slot)`` pair per index entry (made where a data page lists its
live records) and an empty ``deque`` per lock head.  None of the three
may come back into the top ten.
"""

import gc
import linecache
import os
import tracemalloc

import pytest

import repro
from repro.bench.harness import bench_config, run_build_experiment
from repro.txn.transaction import Transaction

ROWS = 40_000
PAGE_PY = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)),
                       "storage", "page.py")
#: bytes of one int a RID needs (a two-int tuple is 56)
INT_BYTES = 32


@pytest.fixture(scope="module")
def snapshots():
    """A 40k-row SF build, snapshotted as the preload commits and once
    the index is built."""
    taken = {}
    commit = Transaction.commit

    def snapshot_the_preload_at_commit(txn, *args, **kwargs):
        if txn.name == "preload" and "preload" not in taken:
            taken["preload"] = tracemalloc.take_snapshot()
        return commit(txn, *args, **kwargs)

    gc.collect()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Transaction, "commit", snapshot_the_preload_at_commit)
        tracemalloc.start()
        try:
            result = run_build_experiment(
                "sf", rows=ROWS, config=bench_config(buffer_frames=4096),
                audit=False)
            gc.collect()
            taken["build"] = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    return result, taken


def top_lines(snapshot, limit=10):
    return [(stat.traceback[0], stat.size, stat.count)
            for stat in snapshot.statistics("lineno")[:limit]]


@pytest.mark.parametrize("peak", ["preload", "build"])
def test_no_rid_tuple_or_lock_queue_in_the_top_ten(snapshots, peak):
    _result, taken = snapshots
    for frame, size, count in top_lines(taken[peak]):
        where = f"{frame.filename}:{frame.lineno} ({size} B, {count} blocks)"
        assert frame.filename != "<string>", \
            f"a namedtuple per row is back at the {peak} peak: {where}"
        source = linecache.getline(frame.filename, frame.lineno)
        assert "deque(" not in source, \
            f"a wait queue per lock head is back at the {peak} peak: {where}"
        if frame.filename == PAGE_PY:
            assert size <= count * INT_BYTES, \
                f"a page lists its RIDs as more than ints: {where}"


def test_index_entries_hold_int_rids(snapshots):
    result, _taken = snapshots
    tree = result.system.indexes["idx"].tree
    entries = list(tree.all_entries())
    assert len(entries) == ROWS
    assert all(type(rid) is int for _key, rid in entries)
