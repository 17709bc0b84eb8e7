"""Unit tests for pages, disk, and buffer pool (repro.storage)."""

import pytest

from repro.errors import PageFullError, RecordNotFoundError, StorageError
from repro.metrics import MetricsRegistry
from repro.storage import DataPage, Disk, PageId, Record, RID
from repro.storage.buffer import BufferPool
from repro.storage.rid import SLOT_BITS, format_rid, rid_page, rid_slot
from repro.system import System, SystemConfig
from repro.wal import LogManager, RecordKind


def drive(system, body):
    """Run one process to completion; return its result."""
    proc = system.spawn(body, name="driver")
    system.run()
    assert proc.error is None
    return proc.result


# -- Record -------------------------------------------------------------------


def test_record_is_one_immutable_slot():
    rec = Record((1, "a", 2.5))
    assert rec.values == (1, "a", 2.5)
    assert rec.project((2, 0)) == (2.5, 1)
    assert rec == Record((1, "a", 2.5)) and rec != Record((1, "a"))
    assert hash(rec) == hash(Record((1, "a", 2.5)))
    assert repr(rec) == "Record(values=(1, 'a', 2.5))"
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.values = (2,)
    with pytest.raises(AttributeError):
        rec.other = 1
    with pytest.raises(AttributeError):
        del rec.values


# -- DataPage ----------------------------------------------------------------


def test_page_put_get_clear():
    page = DataPage(PageId("t", 0), capacity=4)
    rec = Record((1, "a"))
    page.put(2, rec)
    assert page.get(2) is rec
    assert page.live_count == 1
    page.clear(2)
    assert page.peek(2) is None
    with pytest.raises(RecordNotFoundError):
        page.get(2)


def test_page_free_slot_and_full():
    page = DataPage(PageId("t", 0), capacity=2)
    assert page.free_slot() == 0
    page.put(0, Record((1,)))
    assert page.free_slot() == 1
    page.put(1, Record((2,)))
    assert page.free_slot() is None
    assert page.is_full


def test_page_slot_bounds_checked():
    page = DataPage(PageId("t", 0), capacity=2)
    with pytest.raises(PageFullError):
        page.put(5, Record((1,)))


def test_page_live_records_carry_rids():
    page = DataPage(PageId("t", 7), capacity=4)
    page.put(1, Record(("x",)))
    page.put(3, Record(("y",)))
    records = page.live_records()
    assert records == [(RID(7, 1), page.get(1)), (RID(7, 3), page.get(3))]
    assert all(type(rid) is int for rid, _rec in records)


def test_page_live_slots_are_live_records_with_raw_rids():
    page = DataPage(PageId("t", 7), capacity=4)
    for slot in range(4):
        page.put(slot, Record((slot,)))
    page.clear(2)
    records = page.live_records()
    assert [(rid_page(rid), rid_slot(rid)) for rid, _rec in records] \
        == [(7, 0), (7, 1), (7, 3)]
    assert all(type(rid) is int for rid, _rec in records)
    assert [rec for _rid, rec in records] \
        == [page.get(0), page.get(1), page.get(3)]


@pytest.mark.parametrize("page_no, slot", [(0, 0), (0, 4095), (7, 3),
                                           (1 << 30, 17)])
def test_rid_is_one_int_that_orders_as_its_pair(page_no, slot):
    rid = RID(page_no, slot)
    assert type(rid) is int
    assert (rid_page(rid), rid_slot(rid)) == (page_no, slot)
    assert format_rid(rid) == f"({page_no},{slot})"
    pairs = [(page_no, slot), (page_no, 0), (page_no + 1, 0),
             (page_no, (1 << SLOT_BITS) - 1), (max(page_no - 1, 0), 4095)]
    assert sorted(RID(*pair) for pair in pairs) \
        == [RID(*pair) for pair in sorted(pairs)]


@pytest.mark.parametrize("capacity", [-1, 1 << SLOT_BITS, 5000])
def test_a_page_capacity_a_slot_cannot_address_is_refused(capacity):
    with pytest.raises(ValueError, match="page_capacity"):
        System(SystemConfig(page_capacity=capacity)).create_table(
            "t", ["k"])
    with pytest.raises(ValueError, match="page_capacity"):
        System().create_table("t", ["k"], page_capacity=capacity)
    table = System().create_table("t", ["k"],
                                  page_capacity=(1 << SLOT_BITS) - 1)
    assert table.page_capacity == 4095


def test_a_table_hands_out_one_page_id_per_page():
    table = System().create_table("t", ["k"])
    assert table.page_id(3) is table.page_id(3) == PageId("t", 3)
    assert [table.page_id(n).page_no for n in range(5)] == list(range(5))


def test_page_clone_is_independent():
    page = DataPage(PageId("t", 0), capacity=2)
    page.put(0, Record((1,)))
    page.page_lsn = 9
    twin = page.clone()
    page.clear(0)
    assert twin.get(0).values == (1,)
    assert twin.page_lsn == 9


def test_record_project():
    rec = Record(("a", "b", "c"))
    assert rec.project((2, 0)) == ("c", "a")


def test_key_extractor_is_the_projection_and_one_column_stays_a_tuple():
    from repro.core.descriptor import key_extractor

    rec = Record(("a", "b", "c"))
    for columns in ((0,), (2,), (2, 0), (0, 1, 2), (1, 1)):
        assert key_extractor(columns)(rec.values) == rec.project(columns)
    assert key_extractor((1,))(rec.values) == ("b",)
    with pytest.raises(StorageError):
        key_extractor(())


# -- Disk ---------------------------------------------------------------------


def test_disk_roundtrip_is_a_copy():
    disk = Disk()
    page = DataPage(PageId("t", 0), capacity=2)
    page.put(0, Record((1,)))
    disk.write_page(page)
    page.clear(0)
    back = disk.read_page(PageId("t", 0))
    assert back.get(0).values == (1,)


def test_disk_missing_page_is_none():
    disk = Disk()
    assert disk.read_page(PageId("t", 3)) is None
    assert not disk.has_page(PageId("t", 3))


def test_disk_sequential_read_cheaper_than_random():
    disk = Disk()
    assert disk.read_cost(8) < 8 * disk.read_cost(1) / 2


def test_disk_drop_file():
    disk = Disk()
    for i in range(3):
        disk.write_page(DataPage(PageId("idx", i), capacity=2))
    disk.write_page(DataPage(PageId("other", 0), capacity=2))
    disk.drop_file("idx")
    assert disk.file_pages("idx") == []
    assert disk.file_pages("other") == [PageId("other", 0)]


# -- BufferPool ------------------------------------------------------------------


def make_pool(capacity=4):
    metrics = MetricsRegistry()
    disk = Disk(metrics=metrics)
    log = LogManager(metrics=metrics)
    return BufferPool(disk, log, capacity=capacity, metrics=metrics), disk, log


def run_gen(gen):
    """Drive a storage generator outside a simulator, summing delays."""
    total = 0.0
    try:
        while True:
            effect = gen.send(None)
            total += effect.duration
    except StopIteration as stop:
        return stop.value, total


def test_new_page_then_hit():
    pool, disk, _log = make_pool()
    page, _cost = run_gen(pool.new_page(PageId("t", 0), capacity=4))
    again, _cost = run_gen(pool.fetch(PageId("t", 0)))
    assert again is page
    assert pool.metrics.get("buffer.hits") == 1


def test_fetch_missing_page_errors():
    pool, _disk, _log = make_pool()
    with pytest.raises(StorageError):
        run_gen(pool.fetch(PageId("t", 0)))


def test_eviction_writes_dirty_page_and_respects_wal():
    pool, disk, log = make_pool(capacity=2)
    page0, _ = run_gen(pool.new_page(PageId("t", 0), capacity=4))
    page0.put(0, Record(("dirty",)))
    record = log.get(log.append(1, RecordKind.UPDATE, redo=("x", {})))
    pool.mark_dirty(page0, record.lsn)
    run_gen(pool.new_page(PageId("t", 1), capacity=4))
    run_gen(pool.new_page(PageId("t", 2), capacity=4))  # evicts t:0
    assert disk.has_page(PageId("t", 0))
    assert log.flushed_lsn >= record.lsn  # WAL rule
    image = disk.read_page(PageId("t", 0))
    assert image.get(0).values == ("dirty",)


def test_flush_page_clears_dirty_entry():
    pool, disk, log = make_pool()
    page, _ = run_gen(pool.new_page(PageId("t", 0), capacity=4))
    record = log.get(log.append(1, RecordKind.UPDATE, redo=("x", {})))
    pool.mark_dirty(page, record.lsn)
    assert PageId("t", 0) in pool.dirty
    run_gen(pool.flush_page(PageId("t", 0)))
    assert PageId("t", 0) not in pool.dirty
    assert disk.has_page(PageId("t", 0))


def test_dirty_table_keeps_first_lsn():
    pool, _disk, log = make_pool()
    page, _ = run_gen(pool.new_page(PageId("t", 0), capacity=4))
    r1 = log.get(log.append(1, RecordKind.UPDATE, redo=("x", {})))
    r2 = log.get(log.append(1, RecordKind.UPDATE, redo=("x", {})))
    pool.mark_dirty(page, r1.lsn)
    pool.mark_dirty(page, r2.lsn)
    assert pool.dirty[PageId("t", 0)] == r1.lsn  # recovery LSN
    assert page.page_lsn == r2.lsn


def test_fetch_sequential_counts_one_prefetch():
    pool, disk, _log = make_pool(capacity=16)
    ids = []
    for i in range(4):
        page, _ = run_gen(pool.new_page(PageId("t", i), capacity=4))
        ids.append(page.page_id)
        run_gen(pool.flush_page(page.page_id))
    pool.crash()
    pages, cost = run_gen(pool.fetch_sequential(ids))
    assert [p.page_id for p in pages] == ids
    assert pool.metrics.get("buffer.prefetches") == 1
    # one sequential I/O, not four random ones
    assert cost < 4 * disk.RANDOM_IO


def test_latch_current_re_resolves_a_page_evicted_after_the_prefetch():
    """A frame is pinned only by its latch: the unlatched tail of a
    prefetch batch can be evicted and re-read before the scan gets to
    it, and the scan must then latch the resident frame, not the orphan
    it was handed."""
    from repro.sim.kernel import Acquire

    pool, _disk, _log = make_pool(capacity=2)
    ids = [PageId("t", i) for i in range(3)]
    for pid in ids:
        run_gen(pool.new_page(pid, capacity=4))
        run_gen(pool.flush_page(pid))
    pool.crash()
    batch, _ = run_gen(pool.fetch_sequential(ids[:2]))
    run_gen(pool.fetch(ids[2]))               # evicts ids[0] ...
    reread, _ = run_gen(pool.fetch(ids[0]))   # ... which comes back anew
    assert reread is not batch[0]

    def latch(page):
        gen = pool.latch_current(page, "S")
        effect = gen.send(None)
        while not isinstance(effect, Acquire):
            effect = gen.send(None)
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        assert effect.resource is stop.value.value.latch
        return stop.value.value

    assert latch(batch[0]) is reread
    assert pool.metrics.get("buffer.stale_prefetches") == 1
    # a still-resident page is latched as is, and the counter is untouched
    assert latch(reread) is reread
    assert pool.metrics.get("buffer.stale_prefetches") == 1


def test_crash_loses_frames_but_not_disk():
    pool, disk, log = make_pool()
    page, _ = run_gen(pool.new_page(PageId("t", 0), capacity=4))
    page.put(0, Record(("gone",)))
    record = log.get(log.append(1, RecordKind.UPDATE, redo=("x", {})))
    pool.mark_dirty(page, record.lsn)
    pool.crash()
    assert not pool.resident(PageId("t", 0))
    assert not disk.has_page(PageId("t", 0))  # never flushed


def test_ensure_page_creates_fetches_or_returns():
    pool, _disk, _log = make_pool()
    page, _ = run_gen(pool.ensure_page(PageId("t", 0), capacity=4))
    assert pool.metrics.get("buffer.hits") == 0
    same, _ = run_gen(pool.ensure_page(PageId("t", 0), capacity=4))
    assert same is page
    # the foreground path's way in counts its hits like fetch does
    assert pool.metrics.get("buffer.hits") == 1
    assert pool.metrics.get("buffer.misses") == 0
    run_gen(pool.flush_page(PageId("t", 0)))
    pool.crash()
    back, _ = run_gen(pool.ensure_page(PageId("t", 0), capacity=4))
    assert back.page_id == PageId("t", 0)
    assert pool.metrics.get("buffer.hits") == 1
    assert pool.metrics.get("buffer.misses") == 1


def test_audit_records_prefers_the_resident_frame_without_searching():
    system = System(SystemConfig(page_capacity=4))
    table = system.create_table("t", ["k", "p"])
    rids = []

    def load():
        txn = system.txns.begin()
        for k in range(12):
            rids.append((yield from table.insert(txn, (k, "disk"))))
        yield from txn.commit()
        yield from system.buffer.flush_all()

    def touch():
        txn = system.txns.begin()
        yield from table.update(txn, rids[5], (5, "pool"))
        yield from txn.commit()

    system.spawn(load(), name="load")
    system.run()
    system.buffer.crash()  # every page on disk only
    system.spawn(touch(), name="touch")
    system.run()
    assert system.buffer.resident(table.page_id(1))
    assert not system.buffer.resident(table.page_id(0))
    # one look-up by page id per page, not a scan of all frames per page
    system.buffer.resident_pages = None
    found = {rid: record.values for rid, record in table.audit_records()}
    assert found == {rid: (k, "pool" if k == 5 else "disk")
                     for k, rid in enumerate(rids)}


def test_zero_capacity_pool_rejected():
    disk = Disk()
    log = LogManager()
    with pytest.raises(StorageError):
        BufferPool(disk, log, capacity=0)
