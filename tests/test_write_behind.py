"""The buffer pool's one write path and its write-behind.

Every data-page write -- eviction, write-behind, ``flush_page``,
``flush_all`` -- is :meth:`BufferPool._write`: the pages are marked in
flight (evictors and other writers skip them), the log is forced to
their Page-LSN, the I/O holds a disk channel, and the image lands only
if the frame still holds the object that was written.  Write-behind
starts such writes for the dirty frames at the LRU end when a read miss
fills the pool, while fewer than half the disk channels are busy.
"""

from __future__ import annotations

import gc
from collections import OrderedDict

import pytest

from repro import System, SystemConfig
from repro.bench.harness import bench_config, run_build_experiment
from repro.faultinject.injector import (
    CRASH,
    LOST_FLUSH,
    FaultInjector,
    FaultPlan,
)
from repro.recovery import restart
from repro.sim.kernel import Delay
from repro.storage.disk import Disk
from repro.storage.rid import RID
from repro.sweep import Scenario, discover, run_plan


@pytest.fixture(autouse=True)
def _finish_crashed_runs():
    """A crashed run leaves suspended processes whose I/O ``finally``
    blocks run when the garbage collector reaches them: run them here,
    not inside a later test's call count."""
    yield
    gc.collect()


def drive(system, *bodies):
    procs = [system.spawn(body, name=f"p{i}") for i, body in enumerate(bodies)]
    system.run()
    for proc in procs:
        if proc.error is not None:
            raise proc.error
    return procs


def loaded(rows, frames, channels=None):
    """A table of ``rows`` rows ``(k, "v{k}")``, four to a page, loaded
    in one transaction; every page still dirty in the pool."""
    system = System(SystemConfig(page_capacity=4, buffer_frames=frames,
                                 disk_channels=channels))
    table = system.create_table("t", ["k", "v"])
    rids = []

    def load():
        txn = system.txns.begin()
        for k in range(rows):
            rids.append((yield from table.insert(txn, (k, f"v{k}"))))
        yield from txn.commit()

    drive(system, load())
    return system, table, rids


def read_back(system, table, rid):
    got = []

    def reader():
        txn = system.txns.begin()
        got.append((yield from table.read(txn, rid)))
        yield from txn.commit()

    drive(system, reader())
    return got[0].values


def test_a_flush_never_cleans_a_newer_frame_of_the_page():
    """A flush takes its pages before its write I/O.  If an evictor could
    write one of them back and pop it meanwhile, another transaction
    could re-read the page and commit a change into a new frame; the
    flush would then write the old object's image and drop the new
    frame's dirty entry, so the change is never written."""
    system, table, rids = loaded(rows=160, frames=40)
    assert len(system.buffer.dirty) == 40  # every frame dirty
    committed = []

    def flusher():
        yield from system.buffer.flush_all()

    def appender():
        # new pages need frames: evictions run during the flush's I/O
        yield Delay(1)
        txn = system.txns.begin()
        for k in range(160, 172):
            yield from table.insert(txn, (k, f"v{k}"))
        yield from txn.commit()

    def updater():
        # after an evictor wrote and popped page 0, before the flush lands
        yield Delay(20)
        txn = system.txns.begin()
        yield from table.update(txn, rids[0], (0, "COMMITTED"))
        yield from txn.commit()
        committed.append(system.now())

    drive(system, flusher(), appender(), updater())
    assert committed
    others = [table.page_id(page) for page in range(1, table.page_count)]

    def churn():
        # every other page, twice: row 0's page leaves the pool
        for _ in range(2):
            for page_id in others:
                yield from system.buffer.fetch(page_id)

    drive(system, churn())
    assert not system.buffer.resident(table.page_id(0))
    assert read_back(system, table, rids[0]) == (0, "COMMITTED")


class _GuardedFrames(OrderedDict):
    """The frame table, failing any pop of a page whose write is in
    flight: no evictor may free a frame its writer still owns."""

    def __init__(self, pool):
        super().__init__(pool._frames)
        self.pool = pool

    def pop(self, page_id, *default):
        assert page_id not in self.pool._writing, \
            f"{page_id} evicted while its write is in flight"
        return super().pop(page_id, *default)


def test_an_evictor_never_picks_a_page_whose_write_is_in_flight():
    system, table, rids = loaded(rows=200, frames=40, channels=4)
    pool = system.buffer
    pool._frames = _GuardedFrames(pool)
    write = pool._write
    evicted = []

    def checked_write(pages, site, counter):
        if site == "buffer.evict_dirty":
            assert all(page.page_id not in pool._writing for page in pages)
            evicted.extend(page.page_id for page in pages)
        return write(pages, site, counter)

    pool._write = checked_write

    def reader(pages):  # misses the pages the load evicted
        for page_no in pages:
            yield from pool.fetch(table.page_id(page_no))

    def writer():  # dirties rows across the table
        for k in range(0, len(rids), 9):
            txn = system.txns.begin()
            yield from table.update(txn, rids[k], (k, f"u{k}"))
            yield from txn.commit()

    drive(system, reader(range(0, 10)), reader(range(10, 20)), writer())
    assert pool.metrics.get("buffer.write_behinds") > 0
    assert pool.metrics.get("buffer.evictions.clean") > 0
    assert evicted  # the check above ran
    assert not pool._writing


def test_a_page_dirtied_during_its_write_lands_with_the_change():
    system, table, _rids = loaded(rows=200, frames=40, channels=4)
    pool, log = system.buffer, system.log
    written = []
    write_page = system.disk.write_page

    def wal_checked(page):
        written.append((page.page_id, page.page_lsn, log.flushed_lsn))
        write_page(page)

    system.disk.write_page = wal_checked
    target = []

    def miss_then_redirty():
        yield from pool.fetch(table.page_id(0))  # fills the pool: writes
        page_id = next(iter(pool._writing))      # ... one is in flight
        target.append(page_id)
        rid = RID(page_id.page_no, 0)
        txn = system.txns.begin()
        yield from table.update(txn, rid, (4 * page_id.page_no, "again"))
        yield Delay(2 * Disk.RANDOM_IO)  # the write lands uncommitted
        assert page_id not in pool._writing
        yield from txn.commit()

    drive(system, miss_then_redirty())
    page_id = target[0]
    assert system.disk.read_page(page_id).get(0).values \
        == (4 * page_id.page_no, "again")
    assert page_id not in pool.dirty  # the write landed after the change
    assert pool.metrics.get("buffer.write_behinds") > 0
    # the WAL rule at every write: the log is stable up to the image
    assert written and all(page_lsn <= flushed
                           for _page_id, page_lsn, flushed in written)


@pytest.mark.parametrize("channels, ios", [(None, 2), (1, 2), (2, 1), (4, 1)])
def test_a_miss_writes_its_dirty_victim_while_it_reads(channels, ios):
    """With a spare channel, a miss whose victim is dirty waits for one
    I/O: the victim's write and the page's read overlap.  One channel or
    the unlimited model: the write, then the read."""
    system, table, _rids = loaded(rows=200, frames=40, channels=channels)
    pool = system.buffer
    victim = next(iter(pool._frames))
    assert victim in pool.dirty
    waited = []

    def miss():
        start = system.now()
        yield from pool.fetch(table.page_id(0))
        waited.append(system.now() - start)

    drive(system, miss())
    assert waited == [ios * Disk.RANDOM_IO]
    assert pool.resident(table.page_id(0))
    assert not pool.resident(victim) and victim not in pool.dirty
    assert system.disk.read_page(victim) is not None
    assert len(pool._frames) <= pool.capacity and not pool._claimed


@pytest.mark.parametrize("channels, clock, seq", [
    (None, 1858.7958570947164, 3244),
    (1, 3303.5513903782053, 3448),
])
def test_without_a_spare_channel_the_schedule_is_unchanged(channels, clock,
                                                           seq):
    """One channel, or the unlimited model: no write-behind, and the
    clock and ``_seq`` of an SF build under traffic on a 16-frame pool
    are the literals recorded before write-behind existed."""
    result = run_build_experiment(
        "sf", rows=600, operations=80, workers=2, seed=3,
        config=bench_config(buffer_frames=16, disk_channels=channels))
    system = result.system
    assert (system.now(), system.sim._seq) == (clock, seq)
    assert system.metrics.get("buffer.write_behinds") == 0


@pytest.mark.parametrize("kind", [CRASH, LOST_FLUSH])
@pytest.mark.parametrize("hit", [1, 4])
def test_a_crash_inside_a_write_behind_keeps_every_committed_row(kind, hit):
    system, table, rids = loaded(rows=200, frames=40, channels=4)
    injector = FaultInjector(FaultPlan("buffer.page_flush", hit=hit,
                                       kind=kind)).install(system)
    committed = {k: (k, f"v{k}") for k in range(len(rids))}
    pending = {}

    def writer():
        for k in range(0, len(rids), 3):
            pending[k] = (k, f"u{k}")
            txn = system.txns.begin()
            yield from table.update(txn, rids[k], pending[k])
            yield from txn.commit()
            committed[k] = pending.pop(k)

    def reader():
        for page_no in range(table.page_count):
            yield from system.buffer.fetch(table.page_id(page_no))

    system.spawn(writer(), name="writer")
    system.spawn(reader(), name="reader")
    system.run()
    assert system.sim.crashed
    assert injector.fired.site == "buffer.page_flush"
    recovered, _state = restart(system)
    found = {}

    def read_all():
        txn = recovered.txns.begin()
        rtable = recovered.tables["t"]
        for k, rid in enumerate(rids):
            found[k] = (yield from rtable.read(txn, rid)).values
        yield from txn.commit()

    drive(recovered, read_all())
    for k, values in committed.items():
        # the update in flight at the crash may or may not have committed
        assert found[k] in (values, pending.get(k, values)), k


def test_the_sweep_arms_write_behind_writes():
    scenario = Scenario(builder="sf", records=150, operations=40,
                        buffer_frames=8, disk_channels=4)
    census = discover(scenario)
    assert census["buffer.page_flush"] > 0
    for hit in (1, census["buffer.page_flush"]):
        for kind in (CRASH, LOST_FLUSH):
            result = run_plan(scenario, FaultPlan("buffer.page_flush",
                                                  hit=hit, kind=kind))
            assert result.passed and result.fired, result.detail
