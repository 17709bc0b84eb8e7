"""High-contention stress scenarios.

Zero think time, tiny key spaces, and many workers force the races the
paper's machinery exists for: latch queues on hot pages, lock conflicts,
deadlock victims mid-index-maintenance, and heavy side-file traffic.
Every scenario must still end with index == table.
"""

import pytest

from repro.core import IndexSpec, NSFIndexBuilder, SFIndexBuilder
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def hot_config():
    return SystemConfig(page_capacity=4, leaf_capacity=4,
                        branch_capacity=4, sort_workspace=8,
                        merge_fanin=3)


@pytest.mark.parametrize("builder_cls", [NSFIndexBuilder, SFIndexBuilder])
@pytest.mark.parametrize("seed", [71, 72, 73])
def test_hot_key_space_contention(builder_cls, seed):
    """Many workers pounding a 50-value key space during the build."""
    system = System(hot_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=30, workers=6, think_time=0.0,
                        rollback_fraction=0.25, key_space=50)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    pre = system.spawn(driver.preload(100), name="preload")
    system.run()
    assert pre.error is None

    builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    audit_index(system, system.indexes["idx"])
    # contention actually happened
    assert system.metrics.get("latch.waits") > 0


@pytest.mark.parametrize("seed", [81, 82])
def test_deadlocks_during_build_do_not_corrupt(seed):
    """Deadlock victims roll back mid-operation; the index must stay
    consistent with the table regardless."""
    system = System(hot_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=40, workers=8, think_time=0.0,
                        rollback_fraction=0.1, key_space=30,
                        insert_weight=0.5, update_weight=3.0,
                        delete_weight=0.5)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    pre = system.spawn(driver.preload(60), name="preload")
    system.run()
    assert pre.error is None

    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    audit_index(system, system.indexes["idx"])
    aborted = system.metrics.get("workload.aborted")
    deadlocks = system.metrics.get("lock.deadlocks")
    # the interesting case is when deadlocks actually occurred; with
    # these seeds and mixes at least some lock churn must show up
    assert system.metrics.get("lock.waits") > 0
    if deadlocks:
        assert aborted > 0


def test_back_to_back_builds_on_same_table():
    """Build three indexes sequentially, each under load, then drop one
    mid-build of the next?  (Drops during builds are restricted, section
    3.1 footnote 6 -- so: build, build, build, audit all three.)"""
    system = System(hot_config(), seed=91)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=25, workers=3, think_time=0.3,
                        rollback_fraction=0.15, key_space=10_000)
    driver = WorkloadDriver(system, table, spec, seed=91)
    pre = system.spawn(driver.preload(150), name="preload")
    system.run()
    assert pre.error is None

    for round_no, (name, cols) in enumerate(
            [("idx_k", ["k"]), ("idx_p", ["p"]), ("idx_kp", ["k", "p"])]):
        builder = SFIndexBuilder(system, table, IndexSpec.of(name, cols))
        proc = system.spawn(builder.run(), name=f"builder-{round_no}")
        driver.spec = WorkloadSpec(operations=15, workers=2,
                                   think_time=0.3,
                                   rollback_fraction=0.15)
        driver.spawn_workers()
        system.run()
        if proc.error is not None:
            raise proc.error
    for name in ("idx_k", "idx_p", "idx_kp"):
        audit_index(system, system.indexes[name])
    # later builds maintain earlier completed indexes directly
    assert len(table.indexes) == 3


def test_nsf_and_sf_sequentially_on_one_table():
    system = System(hot_config(), seed=95)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=20, workers=3, think_time=0.3,
                        rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=95)
    pre = system.spawn(driver.preload(120), name="preload")
    system.run()
    assert pre.error is None

    for builder_cls, name in ((NSFIndexBuilder, "by_nsf"),
                              (SFIndexBuilder, "by_sf")):
        builder = builder_cls(system, table, IndexSpec.of(name, ["k"]))
        proc = system.spawn(builder.run(), name=name)
        driver.spawn_workers()
        system.run()
        if proc.error is not None:
            raise proc.error
    audit_index(system, system.indexes["by_nsf"])
    audit_index(system, system.indexes["by_sf"])
    # both indexes over the same column agree exactly
    a = sorted(system.indexes["by_nsf"].tree.all_entries())
    b = sorted(system.indexes["by_sf"].tree.all_entries())
    assert a == b


def test_large_table_smoke():
    """One bigger run (5k rows) to catch scale-dependent breakage."""
    system = System(SystemConfig(page_capacity=16, leaf_capacity=16,
                                 sort_workspace=64, merge_fanin=8),
                    seed=99)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=40, workers=4, think_time=1.0,
                        rollback_fraction=0.1)
    driver = WorkloadDriver(system, table, spec, seed=99)
    pre = system.spawn(driver.preload(5_000), name="preload")
    system.run()
    assert pre.error is None

    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    report = audit_index(system, system.indexes["idx"])
    assert report["entries"] >= 4_900
    assert report["height"] >= 3
