"""Open-loop traffic generation, key skew, the shared-disk semaphore,
and the throttled online build's correctness under open-loop load."""

import pytest

from repro.btree.node import make_entry
from repro.core import BuildOptions, IndexSpec, get_builder
from repro.errors import SimulationError
from repro.metrics import MetricsRegistry
from repro.obs import enable_tracing
from repro.sim import Delay, Simulator
from repro.sim.kernel import Acquire
from repro.sim.semaphore import Semaphore
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import OpenLoopDriver, OpenLoopSpec, arrival_schedule
from repro.workloads.openloop import ZipfSampler


# -- arrival process ---------------------------------------------------------


def test_arrival_schedule_is_deterministic_per_seed():
    spec = OpenLoopSpec(operations=300, rate=2.0)
    assert arrival_schedule(spec, seed=9) == arrival_schedule(spec, seed=9)
    assert arrival_schedule(spec, seed=9) != arrival_schedule(spec, seed=10)


def test_arrival_schedule_is_monotone_with_mean_near_rate():
    spec = OpenLoopSpec(operations=2000, rate=4.0)
    times = arrival_schedule(spec, seed=3)
    assert len(times) == 2000
    assert all(b > a for a, b in zip(times, times[1:]))
    mean_gap = times[-1] / len(times)
    assert mean_gap == pytest.approx(1.0 / 4.0, rel=0.10)


def test_bursty_arrivals_concentrate_in_the_burst_window():
    spec = OpenLoopSpec(operations=4000, rate=2.0, arrivals="bursty",
                        burst_factor=4.0, burst_fraction=0.25,
                        burst_period=50.0)
    times = arrival_schedule(spec, seed=5)
    in_burst = sum(1 for t in times
                   if (t % spec.burst_period) / spec.burst_period
                   < spec.burst_fraction)
    # At 4x peak rate over a quarter of each period, the burst window
    # carries ~50% of arrivals (vs 25% for poisson).
    assert in_burst / len(times) > 0.40


def test_unknown_arrival_process_rejected():
    with pytest.raises(ValueError):
        arrival_schedule(OpenLoopSpec(operations=5, arrivals="constant"))
    with pytest.raises(ValueError):
        arrival_schedule(OpenLoopSpec(operations=5, rate=0.0))


# -- zipf skew ---------------------------------------------------------------


def test_zipf_census_is_rank_ordered_and_skewed():
    import random
    sampler = ZipfSampler(100, 1.2)
    rng = random.Random(17)
    census = [0] * 100
    draws = 20_000
    for _ in range(draws):
        census[sampler.sample(rng)] += 1
    # rank 0 is the hottest key and dominates the uniform share
    assert census[0] == max(census)
    assert census[0] > 5 * (draws / 100)
    # the head outweighs the tail half
    assert sum(census[:10]) > sum(census[50:])


def test_zipf_sampler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, 0.0)


def test_zipf_driver_concentrates_inserted_keys():
    system = System(SystemConfig(page_capacity=8), seed=2)
    table = system.create_table("t", ["k", "p"])
    spec = OpenLoopSpec(operations=120, rate=5.0, read_weight=0.0,
                        range_weight=0.0, update_weight=0.0,
                        delete_weight=0.0, distribution="zipf",
                        zipf_s=1.3, key_space=1000)
    driver = OpenLoopDriver(system, table, spec, seed=2)
    driver.spawn()
    system.run()
    keys = [record.values[0] for _rid, record in table.audit_records()]
    assert keys, "no inserts landed"
    assert sum(1 for k in keys if k < 100) > len(keys) / 2


# -- open-loop semantics -----------------------------------------------------


def _run_openloop(arrival_rate: float, seed: int = 4):
    system = System(SystemConfig(page_capacity=8, buffer_frames=16,
                                 disk_channels=1), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = OpenLoopSpec(operations=80, rate=arrival_rate,
                        range_weight=0.0, key_space=500)
    driver = OpenLoopDriver(system, table, spec, seed=seed)
    system.spawn(driver.preload(120), name="preload")
    system.run()
    dispatcher = driver.spawn()
    system.run()
    assert dispatcher.error is None
    return driver


def test_backlog_grows_when_arrivals_outpace_service():
    """The open-loop property: a dispatcher that never waits on its
    operations accumulates in-flight backlog when the system (one disk
    channel, tiny pool) can't keep up -- the signature closed-loop
    drivers structurally cannot show."""
    slow = _run_openloop(arrival_rate=0.02)
    fast = _run_openloop(arrival_rate=5.0)
    assert slow.inflight == 0 and fast.inflight == 0  # all drained
    assert slow.inflight_high_water <= 4
    assert fast.inflight_high_water >= 10
    assert fast.inflight_high_water > 2 * slow.inflight_high_water


def test_openloop_issue_stamps_match_the_arrival_schedule():
    driver = _run_openloop(arrival_rate=5.0)
    issued = sorted(record.issued for record in driver.op_timeline)
    expected = sorted(driver.started_at + at for at in driver.arrivals)
    # noop reads (empty RID pool) never open a transaction but still
    # consume an arrival slot; every recorded op sits on the schedule
    assert len(issued) == len(driver.op_timeline)
    for stamp in issued:
        assert any(abs(stamp - want) < 1e-9 for want in expected)


# -- shared-disk semaphore ---------------------------------------------------


def test_semaphore_caps_concurrency_and_grants_fifo():
    sim = Simulator()
    sem = Semaphore("disk", 2)
    order = []

    def worker(name):
        yield Acquire(sem, "X")
        order.append(f"{name}+")
        yield Delay(10.0)
        order.append(f"{name}-")
        sem.release(sim.current)

    for name in "abcd":
        sim.spawn(worker(name), name=name)
    sim.run()
    assert order == ["a+", "b+", "a-", "b-", "c+", "d+", "c-", "d-"]
    assert sem.in_use == 0


def test_semaphore_rejects_reacquire_and_bad_release():
    sim = Simulator()
    sem = Semaphore("disk", 1)

    def greedy():
        yield Acquire(sem, "X")
        yield Acquire(sem, "X")

    sim.spawn(greedy(), name="greedy")
    with pytest.raises(SimulationError):
        sim.run()
    sem.release(None)  # the GC path drains the dead holder quietly
    assert sem.in_use == 0
    sem.release(None)  # and tolerates having nothing to drain
    with pytest.raises(SimulationError):
        Semaphore("disk", 0)

    def stranger():
        sem.release(sim2.current)
        yield Delay(0)

    sim2 = Simulator()
    sim2.spawn(stranger(), name="stranger")
    with pytest.raises(SimulationError):
        sim2.run()


def test_semaphore_in_place_grant_keeps_the_same_contract():
    """``Simulator.acquired`` grants a free unit through the one grant
    rule: a full semaphore declines without counting or queueing, and a
    holder's second request raises."""
    metrics = MetricsRegistry()
    sim = Simulator()
    sem = Semaphore("disk", 1, metrics=metrics)
    seen = []

    def first():
        yield Delay(1.0)
        seen.append(sim.acquired(sem))
        yield Delay(2.0)
        sem.release(sim.current)

    def second():
        yield Delay(2.0)
        seen.append(sim.acquired(sem))
        yield Acquire(sem, "X")
        seen.append(sim.now)
        sim.acquired(sem)

    sim.spawn(first(), name="first")
    sim.spawn(second(), name="second")
    with pytest.raises(SimulationError, match="re-acquiring"):
        sim.run()
    assert seen == [True, False, 3.0]
    assert metrics.get("semaphore.disk.requests") == 2
    assert metrics.get("semaphore.disk.waits") == 1


def test_disk_channels_queue_concurrent_scans():
    """One shared channel serializes what unlimited bandwidth overlaps;
    a channel per process restores the unlimited-bandwidth clock."""

    def scan_time(channels):
        system = System(SystemConfig(page_capacity=4, buffer_frames=4,
                                     disk_channels=channels), seed=1)
        table = system.create_table("t", ["k", "p"])

        def load():
            txn = system.txns.begin("load")
            for i in range(64):
                yield from table.insert(txn, (i, i))
            yield from txn.commit()

        system.spawn(load(), name="load")
        system.run()
        system.spawn(system.buffer.flush_all(), name="flush")
        system.run()
        from repro.query.access import table_scan

        def scan(name):
            txn = system.txns.begin(name)
            yield from table_scan(txn, table)
            yield from txn.commit()

        start = system.sim.now
        for i in range(4):
            system.spawn(scan(f"scan-{i}"), name=f"scan-{i}")
        system.run()
        return system.sim.now - start, system.metrics

    unlimited, _ = scan_time(None)
    wide, _ = scan_time(8)
    narrow, metrics = scan_time(1)
    assert narrow > 1.5 * unlimited
    assert wide == pytest.approx(unlimited)
    assert metrics.get("semaphore.disk.waits") > 0


# -- throttled online build under open-loop load -----------------------------


@pytest.mark.parametrize("builder", ["sf", "psf"])
def test_throttled_build_is_entry_exact_under_open_loop_load(builder):
    """After a *throttled* online build raced an open-loop write mix,
    the index must hold exactly the serial reference: every live
    ``(key, rid)`` of the final table, in order, nothing else."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 branch_capacity=8, buffer_frames=32,
                                 sort_workspace=16, merge_fanin=4,
                                 disk_channels=1,
                                 build_rate_limit=2.0), seed=6)
    enable_tracing(system)
    table = system.create_table("t", ["k", "p"])
    spec = OpenLoopSpec(operations=60, rate=0.2, range_weight=0.0,
                        key_space=600)
    driver = OpenLoopDriver(system, table, spec, seed=6, index_name="idx")
    system.spawn(driver.preload(150), name="preload")
    system.run()
    opts = {"checkpoint_every_keys": 100, "commit_every_keys": 64}
    if builder == "psf":
        opts["partitions"] = 2
    build = get_builder(builder)(system, table, IndexSpec.of("idx", ["k"]),
                                 BuildOptions(**opts))
    proc = system.spawn(build.run(), name="builder")
    driver.spawn()
    system.run()
    assert proc.error is None
    assert system.metrics.get("build.throttle_waits") > 0

    descriptor = system.indexes["idx"]
    audit_index(system, descriptor)
    reference = sorted(make_entry(descriptor.key_of(record), rid)
                       for rid, record in table.audit_records())
    actual = list(descriptor.tree.all_entries())
    assert actual == reference
