"""Tests for the read access paths (repro.query)."""

from itertools import chain

import pytest

from repro.btree.node import entry_key, entry_rid
from repro.core import BuildOptions, IndexSpec, NSFIndexBuilder, \
    SFIndexBuilder
from repro.query.access import _RangeWalk, _entries_in_range
from repro.query import (
    IndexNotAvailableError,
    index_lookup,
    index_range_scan,
    set_gradual_availability,
    table_scan,
)
from repro.sim import Delay
from repro.storage import RID
from repro.storage.rid import rid_page
from repro.system import System, SystemConfig


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def built(rows=60, builder_cls=SFIndexBuilder, unique=False, **config):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 **config))
    table = system.create_table("t", ["k", "p"])

    def body():
        txn = system.txns.begin()
        for i in range(rows):
            yield from table.insert(txn, (i * 2, f"p{i}"))
        yield from txn.commit()

    drive(system, body())
    builder = builder_cls(system, table,
                          IndexSpec.of("idx", ["k"], unique=unique))
    proc = system.spawn(builder.run(), name="builder")
    system.run()
    assert proc.error is None
    return system, table, system.indexes["idx"]


def test_index_lookup_finds_record():
    system, table, descriptor = built()

    def body():
        txn = system.txns.begin()
        hits = yield from index_lookup(txn, descriptor, (20,))
        yield from txn.commit()
        return hits

    hits = drive(system, body())
    assert len(hits) == 1
    assert hits[0][1].values == (20, "p10")


def test_index_lookup_missing_key():
    system, table, descriptor = built()

    def body():
        txn = system.txns.begin()
        hits = yield from index_lookup(txn, descriptor, (21,))
        yield from txn.commit()
        return hits

    assert drive(system, body()) == []


def test_range_scan_returns_sorted_window():
    system, table, descriptor = built()

    def body():
        txn = system.txns.begin()
        rows = yield from index_range_scan(txn, descriptor, (10,), (30,))
        yield from txn.commit()
        return rows

    rows = drive(system, body())
    keys = [key[0] for key, _rid, _rec in rows]
    assert keys == [10, 12, 14, 16, 18, 20, 22, 24, 26, 28]


def test_range_scan_survives_a_leaf_split_under_it():
    """The scan parks on a record lock three entries into a full leaf;
    the lock's holder splits that leaf, moving the unread upper half to a
    new right sibling.  The scan finishes its snapshot of the old leaf and
    then follows the chain into that sibling: it must resume by key, not
    return the upper half twice."""
    system, table, descriptor = built()
    leaf = next(leaf for leaf in descriptor.tree.leaf_chain()
                if entry_key(leaf.entries[0]) == (16,))
    assert [entry_key(e) for e in leaf.entries] \
        == [(k,) for k in range(16, 32, 2)]
    parked_on = entry_rid(leaf.entries[4])  # key 24
    splits_before = system.metrics.get("index.splits")
    seen = {}

    def writer():
        txn = system.txns.begin("writer")
        yield from table.update(txn, parked_on, (24, "locked"))
        yield Delay(50)  # the scan has read 18, 20, 22 and waits on 24
        seen["scan_blocked"] = "rows" not in seen
        # 31, not 19: the next key above must not be one the scan locked
        yield from table.insert(txn, (31, "splits the leaf"))
        seen["splits"] = system.metrics.get("index.splits") - splits_before
        yield from txn.commit()

    def reader():
        yield Delay(5)
        txn = system.txns.begin("reader")
        seen["rows"] = yield from index_range_scan(txn, descriptor,
                                                   (18,), (50,))
        yield from txn.commit()

    system.spawn(writer(), name="w")
    proc = system.spawn(reader(), name="r")
    system.run()
    assert proc.error is None
    assert seen["scan_blocked"] and seen["splits"] == 1
    keys = [key[0] for key, _rid, _rec in seen["rows"]]
    assert keys == sorted(set(keys))
    assert keys == sorted(list(range(18, 50, 2)) + [31])


def cold(system):
    """Write every dirty page and empty the pool: each read misses."""
    drive(system, system.buffer.flush_all(), name="flush")
    system.buffer.crash()


def test_a_cold_lookup_reads_one_record_and_locks_the_next():
    """Key 14 is the last row of data page 0, key 16 the first of page 1:
    the lookup S-locks 16's record (phantom protection) but reads only
    14's page."""
    system, table, descriptor = built()
    cold(system)
    entries = {entry_key(e): entry_rid(e)
               for e in descriptor.tree.all_entries()}
    assert [rid_page(entries[(14,)]), rid_page(entries[(16,)])] == [0, 1]
    seen = {}

    def body():
        txn = system.txns.begin()
        reads = system.metrics.get("disk.reads")
        seen["hits"] = yield from index_lookup(txn, descriptor, (14,))
        seen["reads"] = system.metrics.get("disk.reads") - reads
        seen["next"] = system.locks.holders(table.lock_name(entries[(16,)]))
        seen["txn"] = txn.txn_id
        yield from txn.commit()

    drive(system, body())
    assert [record.values for _rid, record in seen["hits"]] == [(14, "p7")]
    assert seen["reads"] == 1
    assert seen["next"] == {seen["txn"]: "S"}
    assert not system.buffer.resident(table.page_id(1))


def test_range_scan_survives_a_leaf_split_while_it_prefetches():
    """The prefetch-wait twin of the lock-wait test above: on a cold
    pool the scan's first row sends its next pages to parallel readers,
    and while it waits on them a writer splits the leaf the scan has a
    snapshot of.  Each row comes back once, in key order."""
    system, table, descriptor = built(disk_channels=8)
    cold(system)
    splits_before = system.metrics.get("index.splits")
    seen = {}

    def writer():
        txn = system.txns.begin("writer")
        yield from table.insert(txn, (31, "splits the leaf"))
        seen["splits"] = system.metrics.get("index.splits") - splits_before
        seen["prefetching"] = [proc.name for proc in system.sim.processes()
                               if proc.name.startswith("prefetch")]
        seen["scan_done"] = "rows" in seen
        yield from txn.commit()

    def reader():
        yield Delay(5)
        txn = system.txns.begin("reader")
        seen["rows"] = yield from index_range_scan(txn, descriptor,
                                                   (18,), (50,))
        yield from txn.commit()

    system.spawn(writer(), name="w")
    proc = system.spawn(reader(), name="r")
    system.run()
    assert proc.error is None
    assert seen["splits"] == 1 and seen["prefetching"] \
        and not seen["scan_done"]
    keys = [key[0] for key, _rid, _rec in seen["rows"]]
    assert keys == sorted(list(range(18, 50, 2)) + [31])


def test_the_prefetch_hint_is_a_fresh_descents_after_splits():
    """The hint comes off the walk's own leaf, not a second descent:
    after writers split that leaf, it still names the pages a fresh walk
    from the entry finds, in the same order."""
    system, table, descriptor = built()
    high = (50,)
    walk = _RangeWalk(descriptor, (18,), high, inclusive_high=False)
    entry = next(iter(walk))[0]

    def fresh():
        return [table.page_id(rid_page(entry_rid(later)))
                for later in _entries_in_range(descriptor, entry, high,
                                               inclusive_high=False)
                if entry_key(later) < high
                and later not in descriptor.tree.pseudo_deleted]

    def hint():
        return list(chain.from_iterable(walk.row_pages(entry)))

    first = table.page_id(rid_page(entry_rid(entry)))
    assert hint() == [first] + fresh()
    splits = system.metrics.get("index.splits")

    def writer():
        txn = system.txns.begin()
        for key in range(19, 49, 2):
            yield from table.insert(txn, (key, "split"))
        yield from txn.commit()

    drive(system, writer())
    assert system.metrics.get("index.splits") > splits
    assert hint() == [first] + fresh()
    assert len(hint()) == 1 + (50 - 20) // 2 + (49 - 19) // 2


def serial_range_scan(txn, descriptor, low_key, high_key):
    """Reference: the serializable range scan reading its rows one
    after another."""
    system, table = descriptor.system, descriptor.table
    rows = []
    for entry in _entries_in_range(descriptor, low_key, high_key,
                                   inclusive_high=False):
        rid = entry_rid(entry)
        yield from txn.lock(table.lock_name(rid), "S")
        if entry_key(entry) >= high_key:
            system.metrics.incr("query.range_next_key_locks")
            break
        record = yield from table.read_latched(rid)
        rows.append((entry_key(entry), rid, record))
    cost = system.config.tree_visit_cost * max(1, len(rows) // 8)
    if not system.sim.delayed(cost):
        yield Delay(cost)
    system.metrics.incr("query.range_scans")
    return rows


def cold_scan(scan, disk_channels):
    system, _table, descriptor = built(disk_channels=disk_channels)
    cold(system)
    before = system.metrics.snapshot()

    def body():
        txn = system.txns.begin()
        rows = yield from scan(txn, descriptor, (10,), (90,))
        yield from txn.commit()
        return [(key, rid, record.values) for key, rid, record in rows]

    rows = drive(system, body())
    return (rows, system.sim._seq, system.now(),
            system.metrics.delta(before))


def test_a_one_channel_range_scan_keeps_the_serial_schedule():
    """One disk channel serves one read at a time: nothing to overlap,
    so the scan reads as the serial reference does -- the same rows,
    ``_seq``, clock and counters."""
    scanned = cold_scan(index_range_scan, disk_channels=1)
    assert scanned == cold_scan(serial_range_scan, disk_channels=1)
    rows, _seq, _clock, counters = scanned
    assert len(rows) == 40 and counters["disk.reads"] == 6
    # eight channels overlap the same six reads
    rows8, _seq8, clock8, counters8 = cold_scan(index_range_scan,
                                                disk_channels=8)
    assert rows8 == rows and counters8["disk.reads"] == 6
    assert clock8 < scanned[2] - 4 * 10.0


@pytest.mark.parametrize("disk_channels", [None, 8])
def test_an_eight_frame_pool_reads_what_a_resident_pool_reads(
        disk_channels):
    """The unlimited-bandwidth model prefetches nothing.  With eight
    channels a prefetch fills the whole pool, evicting what the reader
    read before it; the rows are still the resident pool's."""
    def reads(**config):
        system, _table, descriptor = built(rows=200,
                                           disk_channels=disk_channels,
                                           **config)

        def body():
            txn = system.txns.begin()
            rows = yield from index_range_scan(txn, descriptor,
                                               (0,), (400,))
            hits = []
            for key in range(0, 402, 3):
                found = yield from index_lookup(txn, descriptor, (key,))
                hits.append([(rid, rec.values) for rid, rec in found])
            yield from txn.commit()
            return [(key, rid, rec.values) for key, rid, rec in rows], hits

        return drive(system, body()), system

    (small, system), (resident, _) = reads(buffer_frames=8), reads()
    assert small == resident and len(small[0]) == 200
    assert system.metrics.get("disk.reads") >= 25  # the table's pages


@pytest.mark.parametrize("revived", [False, True])
def test_index_lookup_reads_the_bit_after_its_lock_wait(revived):
    """The lookup locks an entry's record before it trusts the entry.  A
    key pseudo-deleted while the lookup waits on that lock counts as the
    lookup finds it after the wait: skipped if still pseudo-deleted,
    returned if its lock holder revived it meanwhile."""
    system, table, descriptor = built()
    tree = descriptor.tree
    entry = next(e for e in tree.all_entries() if entry_key(e) == (20,))
    rid = entry_rid(entry)
    seen = {}

    def holder():
        txn = system.txns.begin("holder")
        yield from table.update(txn, rid, (20, "held"))
        tree.apply_logical("pseudo_delete", (20,), rid)
        yield Delay(50)  # the lookup waits on the record lock
        seen["blocked"] = "hits" not in seen
        if revived:
            tree.apply_logical("reactivate", (20,), rid)
        yield from txn.commit()

    def reader():
        yield Delay(5)
        txn = system.txns.begin("reader")
        seen["hits"] = yield from index_lookup(txn, descriptor, (20,))
        yield from txn.commit()

    system.spawn(holder(), name="h")
    proc = system.spawn(reader(), name="r")
    system.run()
    assert proc.error is None
    assert seen["blocked"]
    assert [hit_rid for hit_rid, _rec in seen["hits"]] \
        == ([rid] if revived else [])


def test_range_scan_skips_pseudo_deleted():
    system, table, descriptor = built()

    def body():
        txn = system.txns.begin()
        yield from table.insert(txn, (11, "doomed"))
        yield from txn.rollback()  # tombstone <11, ...>
        reader = system.txns.begin()
        rows = yield from index_range_scan(reader, descriptor,
                                           (10,), (14,))
        yield from reader.commit()
        return rows

    rows = drive(system, body())
    assert [key[0] for key, _r, _rec in rows] == [10, 12]


def test_serializable_range_scan_blocks_phantom():
    system, table, descriptor = built()
    order = []

    def reader():
        txn = system.txns.begin("reader")
        rows = yield from index_range_scan(txn, descriptor, (10,), (20,))
        order.append(("read", len(rows), system.now()))
        yield Delay(10)
        yield from txn.commit()
        order.append(("reader-done", system.now()))

    def inserter():
        while not any(tag == "read" for tag, *_rest in order):
            yield Delay(0.5)  # wait until the scan has its locks
        txn = system.txns.begin("phantom")
        yield from table.insert(txn, (15, "phantom"))
        order.append(("phantom-inserted", system.now()))
        yield from txn.commit()

    system.spawn(reader(), name="r")
    system.spawn(inserter(), name="i")
    system.run()
    # the phantom's key insert had to wait for the reader's range lock
    read_done = next(o[-1] for o in order if o[0] == "reader-done")
    phantom_at = next(o[1] for o in order if o[0] == "phantom-inserted")
    assert phantom_at >= read_done


def test_reads_rejected_during_build():
    system = System(SystemConfig(page_capacity=8))
    table = system.create_table("t", ["k", "p"])

    def body():
        txn = system.txns.begin()
        for i in range(300):
            yield from table.insert(txn, (i, "x"))
        yield from txn.commit()

    drive(system, body())
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    outcome = {}

    def reader():
        yield Delay(5)  # mid-build
        descriptor = system.indexes.get("idx")
        txn = system.txns.begin()
        try:
            yield from index_lookup(txn, descriptor, (3,))
            outcome["ok"] = True
        except IndexNotAvailableError:
            outcome["rejected"] = True
        yield from txn.commit()

    system.spawn(reader(), name="reader")
    system.run()
    assert proc.error is None
    assert outcome.get("rejected") is True


def test_gradual_availability_footnote3():
    """Section 2.2.1 footnote 3: ranges below IB's committed frontier
    become readable while the build is still running."""
    from repro.core import BuildOptions
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table("t", ["k", "p"])

    def pop():
        txn = system.txns.begin()
        for i in range(400):
            yield from table.insert(txn, (i, "x"))
        yield from txn.commit()

    drive(system, pop())
    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(commit_every_keys=64))
    proc = system.spawn(builder.run(), name="builder")
    outcome = {}

    def reader():
        descriptor = None
        while descriptor is None:
            yield Delay(1)
            descriptor = system.indexes.get("idx")
        set_gradual_availability(descriptor)
        # wait until IB has committed some frontier
        while getattr(descriptor, "read_watermark", None) is None:
            assert not proc.finished
            yield Delay(5)
        watermark = entry_key(descriptor.read_watermark)
        txn = system.txns.begin()
        low_rows = yield from index_range_scan(
            txn, descriptor, (0,), (min(watermark[0], 10),),
            serializable=False)
        outcome["low_ok"] = len(low_rows)
        try:
            yield from index_range_scan(txn, descriptor, (0,), (99_999,))
            outcome["high_ok"] = True
        except IndexNotAvailableError:
            outcome["high_rejected"] = True
        yield from txn.commit()

    system.spawn(reader(), name="reader")
    system.run()
    assert proc.error is None
    assert outcome.get("low_ok", 0) > 0
    assert outcome.get("high_rejected") is True


# (NSF's checkpoint path committed the IB transaction but never advanced
# ``descriptor.read_watermark``, stalling gradual availability whenever
# checkpoints fired instead of plain commits)


def test_nsf_checkpoint_advances_read_watermark():
    """With plain commits disabled, the checkpoint path alone must keep
    footnote-3 gradual availability moving."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table("t", ["k", "p"])

    def pop():
        txn = system.txns.begin()
        for i in range(400):
            yield from table.insert(txn, (i, "x"))
        yield from txn.commit()

    pre = system.spawn(pop(), name="pop")
    system.run()
    assert pre.error is None

    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(commit_every_keys=0,
                             checkpoint_every_keys=32))
    proc = system.spawn(builder.run(), name="builder")
    outcome = {}

    def reader():
        descriptor = None
        while descriptor is None:
            yield Delay(1)
            descriptor = system.indexes.get("idx")
        set_gradual_availability(descriptor)
        while getattr(descriptor, "read_watermark", None) is None:
            # Pre-fix, checkpoints committed the frontier without ever
            # publishing it, so the watermark stayed None until the
            # build finished -- tripping this assert.
            assert not proc.finished, \
                "build finished before a watermark was ever published"
            yield Delay(5)
        outcome["mid_build"] = not proc.finished
        watermark = entry_key(descriptor.read_watermark)
        txn = system.txns.begin()
        rows = yield from index_range_scan(
            txn, descriptor, (0,), (min(watermark[0], 10),),
            serializable=False)
        outcome["low_rows"] = len(rows)
        yield from txn.commit()

    system.spawn(reader(), name="reader")
    system.run()
    assert proc.error is None
    assert outcome.get("mid_build") is True
    assert outcome.get("low_rows", 0) > 0


def test_a_lookup_at_the_watermarks_key_waits_for_its_last_entry():
    """The watermark is IB's highest committed *entry*: entries of its key
    at higher RIDs may still be in the sort.  An inclusive bound must lie
    strictly below its key, an exclusive one may equal it; a lookup at
    the watermark's key used to return 9 of its 40 committed rows."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table("t", ["k", "p"])

    def pop():
        txn = system.txns.begin()
        for i in range(400):
            yield from table.insert(txn, (i // 40, "x"))
        yield from txn.commit()

    drive(system, pop())
    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(commit_every_keys=5, ib_batch_keys=5))
    proc = system.spawn(builder.run(), name="builder")
    seen = {}

    def reader():
        descriptor = None
        while descriptor is None:
            yield Delay(1)
            descriptor = system.indexes.get("idx")
        set_gradual_availability(descriptor)
        while getattr(descriptor, "read_watermark", None) is None:
            assert not proc.finished
            yield Delay(1)
        seen["first"] = descriptor.read_watermark
        txn = system.txns.begin()
        try:
            seen["partial"] = yield from index_lookup(txn, descriptor, (0,))
        except IndexNotAvailableError:
            seen["refused"] = True
        # an exclusive bound at the watermark's key is below every entry
        # IB has yet to insert
        seen["below"] = yield from index_range_scan(
            txn, descriptor, (0,), (0,), serializable=False)
        yield from txn.commit()
        # once the frontier passes key 0, all of key 0 is readable
        while entry_key(descriptor.read_watermark) <= (0,):
            assert not proc.finished
            yield Delay(1)
        seen["later"] = entry_key(descriptor.read_watermark)
        txn = system.txns.begin()
        seen["lookup"] = yield from index_lookup(txn, descriptor, (0,))
        seen["range"] = yield from index_range_scan(
            txn, descriptor, (0,), seen["later"], serializable=False)
        yield from txn.commit()

    system.spawn(reader(), name="reader")
    system.run()
    assert proc.error is None
    assert entry_key(seen["first"]) == (0,), seen["first"]
    assert seen.get("refused") is True, \
        f"{len(seen.get('partial', []))} of 40 rows of key 0"
    assert seen["below"] == []
    assert seen["later"] >= (1,)
    assert len(seen["lookup"]) == 40
    assert len(seen["range"]) >= 40


def test_table_scan_matches_index_contents():
    system, table, descriptor = built()

    def body():
        txn = system.txns.begin()
        via_table = yield from table_scan(txn, table)
        via_index = yield from index_range_scan(txn, descriptor,
                                                (0,), None,
                                                serializable=False)
        yield from txn.commit()
        return via_table, via_index

    via_table, via_index = drive(system, body())
    assert len(via_table) == len(via_index) == 60
    assert {rid for rid, _r in via_table} \
        == {rid for _k, rid, _r in via_index}


def test_table_scan_with_predicate():
    system, table, _descriptor = built()

    def body():
        txn = system.txns.begin()
        rows = yield from table_scan(
            txn, table, predicate=lambda rec: rec.values[0] < 10)
        yield from txn.commit()
        return rows

    rows = drive(system, body())
    assert sorted(rec.values[0] for _rid, rec in rows) == [0, 2, 4, 6, 8]


def test_serializable_range_scan_blocks_a_phantom_past_its_last_key():
    """The phantom falls between the range's last key (16) and the next
    key (18), which lies past the range: only the scan's lock on that
    next key stands between the insert and the reader's range."""
    system, table, descriptor = built()
    order = []

    def reader():
        txn = system.txns.begin("reader")
        rows = yield from index_range_scan(txn, descriptor, (10,), (17,))
        order.append(("read", [key[0] for key, _r, _rec in rows]))
        yield Delay(10)
        yield from txn.commit()
        order.append(("reader-done", system.now()))

    def inserter():
        while not order:
            yield Delay(0.5)  # wait until the scan has its locks
        txn = system.txns.begin("phantom")
        yield from table.insert(txn, (17, "phantom"))
        order.append(("phantom-inserted", system.now()))
        yield from txn.commit()

    system.spawn(reader(), name="r")
    system.spawn(inserter(), name="i")
    system.run()
    assert order[0] == ("read", [10, 12, 14, 16])
    # the insert of 17 waited for the reader's lock on 18
    read_done = next(o[1] for o in order if o[0] == "reader-done")
    phantom_at = next(o[1] for o in order if o[0] == "phantom-inserted")
    assert phantom_at >= read_done
