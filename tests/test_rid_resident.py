"""A RID is one int, and a held lock carries no empty wait queue.

The ladder build's two memory peaks are a one-transaction preload (an X
lock held on every row) and the built index.  At either, the largest
lines of a tracemalloc snapshot used to include a RID namedtuple per row
(made by the generated constructor, whose frame is ``<string>``), a raw
``(page, slot)`` pair per index entry (made where a data page lists its
live records) and an empty ``deque`` per lock head; later the payload
tuple :meth:`Table.log_payload` built for each heap log record.  None of
the four may come back into the top ten.  An index entry is one flat tuple,
``(*key, rid)``, made once by the scan and shared by the sealed run, the
leaf and the stable image.
"""

import gc
import inspect
import linecache
import os
import tracemalloc

import pytest

import repro
from repro.bench.harness import bench_config, run_build_experiment
from repro.storage.page import DataPage
from repro.storage.table import Table
from repro.txn.transaction import Transaction

ROWS = 40_000
SRC = os.path.dirname(os.path.abspath(repro.__file__))
PAGE_PY = os.path.join(SRC, "storage", "page.py")
#: the build scan, which makes the index entries
BASE_PY = os.path.join(SRC, "core", "base.py")
#: bytes of one int a RID needs (a two-int tuple is 56)
INT_BYTES = 32
TABLE_PY = os.path.join(SRC, "storage", "table.py")


def _lines(function) -> range:
    source, first = inspect.getsourcelines(function)
    return range(first, first + len(source))


#: the lines of the heap log record builder
LOG_PAYLOAD_LINES = _lines(Table.log_payload)
#: the lines where a data page lists its live records, RIDs made there
LIVE_RECORDS_LINES = _lines(DataPage.live_records)


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
        if frame.filename == PAGE_PY and frame.lineno in LIVE_RECORDS_LINES:
            assert size <= count * INT_BYTES, \
                f"a page lists its RIDs as more than ints: {where}"
        assert not (frame.filename == TABLE_PY
                    and frame.lineno in LOG_PAYLOAD_LINES), \
            f"a payload tuple per heap log record is back at the {peak} " \
            f"peak: {where}"


def test_index_entries_hold_int_rids(snapshots):
    result, _taken = snapshots
    tree = result.system.indexes["idx"].tree
    entries = list(tree.all_entries())
    assert len(entries) == ROWS
    assert all(type(rid) is int for _key, rid in entries)


def test_one_object_per_entry_shared_by_leaf_run_and_image(snapshots):
    """The scan line makes one tuple per key and index (a key tuple and a
    pair while entries were nested), and that tuple is the leaf entry,
    the sealed run's key and the stable image's entry."""
    result, taken = snapshots
    by_line = taken["build"].filter_traces(
        [tracemalloc.Filter(True, BASE_PY)]).statistics("lineno")
    scan_line = max(by_line, key=lambda stat: stat.count)
    assert scan_line.count <= ROWS, \
        f"{scan_line.count} objects for {ROWS} keys at {scan_line.traceback}"
    system = result.system
    tree = system.indexes["idx"].tree
    leaves = list(tree.leaf_chain())
    entries = [entry for leaf in leaves for entry in leaf.entries]
    (sealed,) = system.run_stores["sealed:idx"].runs.values()
    images = tree.stable_image().pages
    imaged = [entry for leaf in leaves for entry in images[leaf.page_no][3]]
    assert len(entries) == len(sealed.keys) == len(imaged) == ROWS
    assert all(entry is key is image for entry, key, image
               in zip(entries, sealed.keys, imaged))
