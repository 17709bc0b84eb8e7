"""Regression tests for the multibuild-era bugfix sweep.

Multi-index builds under open-loop traffic stressed paths no earlier
workload reached, and surfaced five pre-existing bugs.  Each gets a
regression test here:

* buffer pool: two concurrent misses of the same page installed two
  distinct ``DataPage`` objects (the second silently replacing the
  first, losing logged-but-unflushed updates and breaking latch mutual
  exclusion);
* buffer pool: a page whose latch was held (or awaited) could be chosen
  as an eviction victim, stranding the holder on a zombie object whose
  updates no later fetch could see;
* lock manager: deadlock-aborting a queued waiter never re-drained the
  queue, so compatible requests stuck behind the aborted entry slept
  until an unrelated release -- in a convoyed system, forever;
* lock manager: waits-for edges created at *grant* time (a drain
  promoting a waiter to holder past still-queued entries) completed
  cycles that enqueue-time detection never examined;
* lock manager: the FIFO edges of the waits-for graph skipped
  mode-compatible pairs, although ``_drain`` blocks unconditionally at
  the first non-grantable entry.

Plus the satellite fixes riding along: the token bucket shared across
concurrent throttled builds (with per-build metric namespacing), the
Zipf sampler's boundary clamp, and partition/frontier degenerate
inputs.
"""

import random

import pytest

from repro.core import BuildOptions, IndexSpec, build_pre_undo, \
    resume_builds
from repro.core.sf import MultiIndexBuilder, SFIndexBuilder
from repro.errors import DeadlockVictim
from repro.recovery import restart, run_until_crash
from repro.sim import Acquire, Delay, EXCLUSIVE
from repro.sidefile.frontier import ScanFrontier, partition_pages
from repro.storage.rid import RID
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import OpenLoopDriver, OpenLoopSpec, \
    WorkloadDriver, WorkloadSpec
from repro.workloads.openloop import ZipfSampler


def drive_all(system, bodies):
    procs = [system.spawn(body, name=f"p{i}")
             for i, body in enumerate(bodies)]
    system.run()
    for proc in procs:
        if proc.error is not None:
            raise proc.error
    return procs


# -- lock manager: abort must re-drain the victim's queue --------------------


def test_aborted_waiter_unblocks_requests_queued_behind_it():
    """A deadlock victim's queued X request was head-of-line for an S
    request compatible with the current holders.  Removing the victim's
    entry must drain the queue immediately: before the fix the S waiter
    slept until the holder committed."""
    system = System()
    events = {}

    def txn_a():
        txn = system.txns.begin("a")
        yield from txn.lock("r1", "S")
        yield Delay(4)
        yield from txn.lock("r2", "X")   # completes the a<->b cycle, t=4
        yield Delay(5)
        yield from txn.commit()
        events["a_done"] = system.now()

    def txn_b():
        yield Delay(1)
        txn = system.txns.begin("b")
        yield from txn.lock("r2", "X")
        yield Delay(1)
        try:
            yield from txn.lock("r1", "X")   # queues behind a's S, t=2
            yield from txn.commit()
        except DeadlockVictim:
            yield from txn.rollback()
            events["b_victim"] = system.now()

    def txn_c():
        yield Delay(3)
        txn = system.txns.begin("c")
        yield from txn.lock("r1", "S")   # FIFO: queued behind b's X
        events["c_granted"] = system.now()
        yield from txn.commit()

    drive_all(system, [txn_a(), txn_b(), txn_c()])
    assert system.metrics.get("lock.deadlocks") == 1
    assert events["b_victim"] == 4       # youngest cycle member dies
    # c is compatible with the surviving holder; the abort-time drain
    # wakes it at the abort instant, not at a's commit (t=9)
    assert events["c_granted"] == 4
    assert events["c_granted"] < events["a_done"]


def test_waits_for_graph_includes_compatible_queued_followers():
    """An S request queued behind another S (itself blocked by an X
    holder) is just as blocked -- ``_drain`` stops at the first
    non-grantable entry -- so the FIFO edge must appear in the graph
    even though the two modes are compatible."""
    system = System()
    seen = {}

    def holder():
        txn = system.txns.begin("h")
        seen["h"] = txn.txn_id
        yield from txn.lock("r1", "X")
        yield Delay(10)
        yield from txn.commit()

    def waiter(tag, at):
        def body():
            yield Delay(at)
            txn = system.txns.begin(tag)
            seen[tag] = txn.txn_id
            yield from txn.lock("r1", "S")
            yield from txn.commit()
        return body()

    def probe():
        yield Delay(3)
        graph = system.locks._waits_for_graph()
        seen["edges"] = {(waiter, waited_for)
                         for waiter, successors in graph.items()
                         for waited_for in successors}

    drive_all(system, [holder(), waiter("s1", 1), waiter("s2", 2),
                       probe()])
    assert (seen["s1"], seen["h"]) in seen["edges"]
    assert (seen["s2"], seen["h"]) in seen["edges"]
    assert (seen["s2"], seen["s1"]) in seen["edges"]


# -- buffer pool: install race and latch-aware eviction ----------------------


def _filled_table(frames, rows=24):
    system = System(SystemConfig(page_capacity=4, buffer_frames=frames))
    table = system.create_table("t", ["k"])

    def fill():
        txn = system.txns.begin()
        for i in range(rows):
            yield from table.insert(txn, (i,))
        yield from txn.commit()
        yield from system.buffer.flush_all()

    drive_all(system, [fill()])
    return system, table


def test_concurrent_misses_of_one_page_share_one_object():
    """Two processes missing the same page must end up with the SAME
    DataPage object.  Before the fix each installed its own disk image;
    the second install replaced the first holder's object in the frame
    table, losing its logged-but-unflushed updates."""
    system, table = _filled_table(frames=64)
    system.buffer.crash()        # cold cache: both fetches will miss
    pid = table.page_id(0)
    got = []

    def fetcher():
        page = yield from system.buffer.fetch(pid)
        got.append(page)

    drive_all(system, [fetcher(), fetcher()])
    assert len(got) == 2
    assert got[0] is got[1]
    assert system.metrics.get("buffer.install_races") >= 1
    assert system.buffer._frames[pid] is got[0]


def test_latched_page_is_never_an_eviction_victim():
    """A process holding (or awaiting) a page's latch owns a reference
    to the page *object*; eviction must skip it or the holder's writes
    land on a zombie invisible to every later fetch."""
    system, table = _filled_table(frames=2)
    pid0 = table.page_id(0)
    outcome = {}

    def pinner():
        page = yield from system.buffer.fetch(pid0)
        yield Acquire(page.latch, EXCLUSIVE)
        try:
            yield Delay(10)       # hold across the eviction pressure
            # still resident AND still the same object (once the latch
            # drops the page becomes an ordinary victim again)
            outcome["canonical"] = system.buffer._frames.get(pid0) is page
        finally:
            page.latch.release(system.sim.current)

    def presser():
        yield Delay(1)
        for page_no in range(1, table.page_count):
            yield from system.buffer.fetch(table.page_id(page_no))

    drive_all(system, [pinner(), presser()])
    assert outcome["canonical"] is True
    assert system.metrics.get("buffer.evictions.clean") >= 1


def test_fully_latched_pool_overcommits_instead_of_evicting():
    """With every frame latched there is no legal victim; the pool must
    run over capacity (and count it) rather than strand a latch holder."""
    system, table = _filled_table(frames=1)
    pid0 = table.page_id(0)
    outcome = {}

    def pinner():
        page = yield from system.buffer.fetch(pid0)
        yield Acquire(page.latch, EXCLUSIVE)
        try:
            yield Delay(10)
            outcome["canonical"] = system.buffer._frames.get(pid0) is page
        finally:
            page.latch.release(system.sim.current)

    def presser():
        yield Delay(1)
        yield from system.buffer.fetch(table.page_id(1))

    drive_all(system, [pinner(), presser()])
    assert outcome["canonical"] is True
    assert system.metrics.get("buffer.overcommits") >= 1
    assert system.buffer.resident(pid0)
    assert system.buffer.resident(table.page_id(1))


# -- integration: the workloads that surfaced the bugs -----------------------

KEY_SPACE = 2000


def _row_factory(key, tag):
    return (key, tag, (key * 7) % KEY_SPACE, (key * 13) % KEY_SPACE)


def _multibuild_under_backlog(rate, build_rate_limit, operations=400):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 branch_capacity=8, buffer_frames=32,
                                 sort_workspace=32, merge_fanin=4,
                                 disk_channels=1,
                                 build_rate_limit=build_rate_limit),
                    seed=11)
    table = system.create_table("orders", ["k", "p", "a", "b"])
    spec = OpenLoopSpec(operations=operations, rate=rate,
                        read_weight=1.0, range_weight=2.0,
                        range_span=100, key_space=KEY_SPACE,
                        range_columns=(("k", 2.0), ("a", 1.0),
                                       ("b", 1.0)))
    driver = OpenLoopDriver(system, table, spec, seed=11)
    driver.row_factory = _row_factory
    drive_all(system, [driver.preload(320)])
    builder = MultiIndexBuilder(
        system, table,
        [IndexSpec.of("adv_k", ["k"]), IndexSpec.of("adv_a", ["a"]),
         IndexSpec.of("adv_b", ["b"])],
        options=BuildOptions(checkpoint_every_keys=200,
                             commit_every_keys=128, prefetch_pages=2))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn()
    system.run()
    # A Python error in any other process propagates out of run().
    if proc.error is not None:
        raise proc.error
    return system, driver


def test_multibuild_under_heavy_backlog_loses_no_records():
    """The original repro of both buffer races: an overloaded open-loop
    stream (full-scan range reads over a thrashing 32-frame pool) while
    a K=3 shared-scan build runs.  Before the buffer fixes this died
    with RecordNotFoundError on a record a concurrent install had
    silently dropped."""
    system, driver = _multibuild_under_backlog(rate=0.2,
                                               build_rate_limit=None)
    # the race path was actually exercised, not avoided
    assert system.metrics.get("buffer.install_races") > 0
    assert len(driver.op_timeline) == 400
    for name in ("adv_k", "adv_a", "adv_b"):
        audit_index(system, system.indexes[name])


def test_throttled_multibuild_never_wedges():
    """The lock-manager convoy regression: a throttled build plus
    backlogged traffic used to freeze permanently -- transactions parked
    forever on lock queues with no waits-for cycle (or with cycles the
    detector never re-examined).  Every process must now finish and
    every operation complete."""
    system, driver = _multibuild_under_backlog(rate=0.1,
                                               build_rate_limit=0.25)
    stuck = [p.name for p in system.sim.processes()]
    assert stuck == [], f"processes wedged at quiescence: {stuck}"
    assert len(driver.op_timeline) == 400
    # the convoys are broken by detected deadlock aborts, not luck
    assert system.metrics.get("lock.deadlocks") > 0
    for name in ("adv_k", "adv_a", "adv_b"):
        audit_index(system, system.indexes[name])


# -- satellite: shared token bucket + per-build metric namespacing -----------


def _two_tables_system(build_rate_limit):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16, merge_fanin=4,
                                 build_rate_limit=build_rate_limit),
                    seed=31)
    tables = []
    for name in ("t1", "t2"):
        table = system.create_table(name, ["k", "p"])
        driver = WorkloadDriver(system, table,
                                WorkloadSpec(operations=0), seed=31)
        drive_all(system, [driver.preload(150)])
        tables.append(table)
    return system, tables


def test_concurrent_builds_share_one_token_bucket():
    """K concurrent throttled builds must debit ONE bucket (the
    configured limit bounds the aggregate rate), and their charges stay
    attributable through per-build metric names."""
    system, (t1, t2) = _two_tables_system(build_rate_limit=50.0)
    b1 = SFIndexBuilder(system, t1, [IndexSpec.of("i1", ["k"])])
    b2 = SFIndexBuilder(system, t2, [IndexSpec.of("i2", ["p"])])
    assert b1._rate_bucket is b2._rate_bucket
    assert b1._rate_bucket is system._build_bucket
    drive_all(system, [b1.run(), b2.run()])
    audit_index(system, system.indexes["i1"])
    audit_index(system, system.indexes["i2"])
    per_build = [system.metrics.get("build.throttle_charges.i1"),
                 system.metrics.get("build.throttle_charges.i2")]
    assert all(count > 0 for count in per_build)
    # the unsuffixed total is exactly the sum of the per-build counters
    assert system.metrics.get("build.throttle_charges") == sum(per_build)


def test_crash_with_two_throttled_builds_resumes_both():
    system, (t1, t2) = _two_tables_system(build_rate_limit=10.0)
    options = BuildOptions(checkpoint_every_pages=4,
                           checkpoint_every_keys=32,
                           commit_every_keys=16)
    b1 = SFIndexBuilder(system, t1, [IndexSpec.of("i1", ["k"])],
                        options=options)
    b2 = SFIndexBuilder(system, t2, [IndexSpec.of("i2", ["p"])],
                        options=options)
    system.spawn(b1.run(), name="builder-1")
    system.spawn(b2.run(), name="builder-2")
    # both builds are mid-load at +20 (the full throttled pair takes
    # ~39 simulated time units); the crash must interrupt BOTH
    run_until_crash(system, system.now() + 20.0)

    recovered, _state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_builds(recovered)
    assert len(resumed) == 2, "both interrupted builds must resume"
    drive_all(recovered, [builder.run() for builder in resumed])
    audit_index(recovered, recovered.indexes["i1"])
    audit_index(recovered, recovered.indexes["i2"])


# -- satellite: Zipf boundary clamp ------------------------------------------


class _AdversarialRng:
    """random() values chosen to land on (or past) the cumulative-weight
    boundary -- the rounding the clamp exists for."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_zipf_sample_clamps_the_boundary_draw():
    sampler = ZipfSampler(5, 1.2)
    # 1.0 violates random()'s contract; even so the clamp keeps the rank
    # in range instead of returning n
    boundary = _AdversarialRng([1.0, 1.0 - 2 ** -53, 0.0])
    assert sampler.sample(boundary) == 4
    assert 0 <= sampler.sample(boundary) <= 4
    assert sampler.sample(boundary) == 0   # rank 0 is the hottest


def test_zipf_sampler_shape_and_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.2)
    with pytest.raises(ValueError):
        ZipfSampler(5, 0.0)
    sampler = ZipfSampler(8, 1.2)
    rng = random.Random(7)
    counts = [0] * 8
    for _ in range(2000):
        counts[sampler.sample(rng)] += 1
    assert sum(counts) == 2000
    assert counts[0] == max(counts)   # rank 0 hottest


# -- satellite: partition / frontier degenerate inputs -----------------------


def test_partition_pages_covers_and_balances():
    for page_count in range(0, 13):
        for shards in range(1, 6):
            parts = partition_pages(page_count, shards)
            assert len(parts) == shards
            assert parts[0].start == 0
            assert parts[-1].end == max(page_count, 0)
            assert parts[-1].chases_eof
            assert not any(p.chases_eof for p in parts[:-1])
            for left, right in zip(parts, parts[1:]):
                assert left.end == right.start
            sizes = [p.pages for p in parts]
            assert sum(sizes) == max(page_count, 0)
            assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        partition_pages(10, 0)
    # a negative page count clamps to an all-empty partitioning
    assert all(p.pages == 0 for p in partition_pages(-3, 2))


def test_scan_frontier_degenerate_inputs():
    with pytest.raises(ValueError):
        ScanFrontier([])
    # empty table, over-partitioned: everything belongs to the last
    # (EOF-chasing) shard and nothing is scanned until finish
    frontier = ScanFrontier(partition_pages(0, 3))
    assert frontier.shard_of(0) == 2
    assert frontier.shard_of(99) == 2
    assert not frontier.scanned(RID(0, 0))
    frontier.finish_all()
    assert frontier.scanned(RID(123, 4))

    # shard_of matches the linear answer, including for empty shards
    # and for pages past the partitioned range
    parts = partition_pages(7, 3)
    frontier = ScanFrontier(parts)
    for page_no in range(0, 10):
        linear = next((i for i, p in enumerate(parts)
                       if p.start <= page_no < p.end),
                      len(parts) - 1)
        assert frontier.shard_of(page_no) == linear

    # frontiers may never move backwards
    frontier.advance(0, RID(1, 0))
    with pytest.raises(ValueError):
        frontier.advance(0, RID(0, 0))
