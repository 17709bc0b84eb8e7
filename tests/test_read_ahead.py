"""The build scan's read-ahead and frame recycling.

Under the shared-disk model, once a batch of the scan is resident the
scan starts background reads of the next two batches
(:meth:`BufferPool.read_ahead`) while fewer than half the disk channels
are busy and while fewer than a quarter of the frames are read ahead and
not yet asked for; a page whose read is in flight is joined, never read
twice.  A page the scan read from disk goes to the LRU end once its keys
are extracted (:meth:`BufferPool.recycle`); a page resident before the
scan keeps its place.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro import System, SystemConfig
from repro.bench.harness import bench_config, run_build_experiment
from repro.core import IndexSpec, build_pre_undo, get_builder, resume_build
from repro.faultinject.injector import FaultInjector, FaultPlan
from repro.recovery import restart
from repro.sweep import Scenario
from repro.sweep.scenario import start_build
from repro.verify import audit_index


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


def loaded(rows, frames, channels):
    """A table of ``rows`` rows ``(k, "v{k}")``, four to a page, written
    to disk and dropped from the pool."""
    system = System(SystemConfig(page_capacity=4, buffer_frames=frames,
                                 disk_channels=channels))
    table = system.create_table("t", ["k", "v"])

    def load():
        txn = system.txns.begin()
        for k in range(rows):
            yield from table.insert(txn, (k, f"v{k}"))
        yield from txn.commit()
        yield from system.buffer.flush_all()

    drive(system, load())
    system.buffer._frames.clear()
    return system, table


def watched_reads(system):
    """Count every disk read of a data page, by page."""
    reads = Counter()
    read_page = system.disk.read_page

    def counted(page_id):
        reads[page_id] += 1
        return read_page(page_id)

    system.disk.read_page = counted
    return reads


def build(system, table, builder="sf"):
    builder = get_builder(builder)(system, table, [IndexSpec("idx", ["k"])])
    drive(system, builder.run())
    return builder


def test_an_idle_scan_reads_no_page_twice():
    system, table = loaded(rows=600, frames=32, channels=8)
    reads = watched_reads(system)
    metrics = system.metrics
    before = metrics.snapshot()
    build(system, table)
    delta = metrics.delta(before)
    assert delta["buffer.read_aheads"] > 0
    assert set(reads.values()) == {1}
    assert delta["disk.pages_read"] == len(reads) == table.page_count
    # a page read ahead is one miss, not a miss and then a hit
    assert delta["buffer.misses"] == table.page_count
    assert delta.get("buffer.hits", 0) == 0
    audit_index(system, system.indexes["idx"])


def test_a_scanned_page_is_the_next_victim_a_resident_one_keeps_its_place():
    system, table = loaded(rows=64, frames=16, channels=4)
    pool = system.buffer
    ids = [table.page_id(page_no) for page_no in range(table.page_count)]
    order = []

    def scan():
        yield from pool.fetch(ids[3])        # resident before the scan
        yield from pool.fetch(ids[15])       # ... and more recent
        pages = yield from pool.fetch_sequential(ids[:8], recycle=True)
        for page in pages:
            page = yield from pool.latch_current(page, "S")
            page.latch.release(system.sim.current)
            pool.recycle(page)
            order.append(pool._victim().page_id)

    drive(system, scan())
    # each page the scan read is the next victim once released ...
    assert order == [pid if pid != ids[3] else ids[2]
                     for pid in ids[:8]]
    # ... ahead of the page resident before the scan, which the scan's
    # hit touched like any other
    lru = list(pool._frames)
    assert lru.index(ids[3]) > max(lru.index(pid) for pid in ids[:8]
                                   if pid != ids[3])
    assert system.metrics.get("buffer.scan_recycled") == 7


def test_without_a_spare_channel_nothing_is_read_ahead_or_recycled():
    for channels in (None, 1):
        system, table = loaded(rows=600, frames=32, channels=channels)
        build(system, table)
        assert system.metrics.get("buffer.read_aheads") == 0
        assert system.metrics.get("buffer.scan_recycled") == 0


def test_read_ahead_stays_under_half_the_channels_and_a_quarter_of_frames():
    system, table = loaded(rows=600, frames=32, channels=8)
    pool = system.buffer
    start = pool.read_ahead
    seen = []

    def checked(batches):
        # what was in flight before: fewer than half the channels busy
        # whenever a read starts, and never more than 8 pages ahead
        in_use = pool.io.in_use
        started = start(batches)
        if started:
            assert in_use < 4
        assert len(pool._ahead) <= 32 // 4
        seen.append(len(pool._ahead))
        return started

    pool.read_ahead = checked
    build(system, table)
    assert max(seen) == 8  # the quarter is reached: partial batches


def test_on_eight_frames_and_four_channels_it_still_reads_ahead():
    for builder in ("sf", "nsf"):
        metrics = []
        for channels in (1, 4):
            result = run_build_experiment(
                builder, rows=600, operations=40, workers=2, seed=3,
                config=bench_config(buffer_frames=8,
                                    disk_channels=channels))
            metrics.append(result.system.metrics)
        serial, shared = metrics
        assert shared.get("buffer.read_aheads") > 0
        assert shared.get("buffer.overcommits") \
            == serial.get("buffer.overcommits") == 0


@pytest.mark.parametrize("builder", ["sf", "nsf"])
def test_a_crash_inside_a_read_ahead_keeps_every_committed_row(builder):
    # 12 frames: on 8, NSF's read-aheads evict no dirty page
    scenario = Scenario(builder=builder, records=500, operations=150,
                        buffer_frames=12, disk_channels=4)
    # find a dirty eviction made by a read-ahead process
    processes = []

    class Watching(FaultInjector):
        def hit(self, site):
            if site == "buffer.evict_dirty":
                processes.append(self.system.sim.current.name)
            return super().hit(site)

    system, _driver, _proc = start_build(scenario, Watching())
    system.run()
    assert "read-ahead" in processes
    hit = processes.index("read-ahead") + 1

    injector = scenario.make_injector(FaultPlan("buffer.evict_dirty",
                                                hit=hit))
    system, driver, _proc = start_build(scenario, injector)
    system.run()
    assert system.sim.crashed and injector.fired is not None
    committed = {rid: driver.pool[rid] for rid in driver.pool}
    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    if resumed is not None:
        drive(recovered, resumed.run())
    else:
        drive(recovered, scenario.make_builder(recovered).run())
    audit_index(recovered, recovered.indexes["idx"])
    table = recovered.tables["t"]
    found = {}

    def read_all():
        txn = recovered.txns.begin()
        for rid in committed:
            found[rid] = (yield from table.read(txn, rid)).values[0]
        yield from txn.commit()

    drive(recovered, read_all())
    assert found == committed
