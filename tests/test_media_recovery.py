"""Media recovery tests: the §2.2.3 image-copy asymmetry of NSF vs SF."""

import pytest

from repro.btree.node import entry_key
from repro.core import IndexSpec, NSFIndexBuilder, SFIndexBuilder
from repro.core.descriptor import IndexState
from repro.recovery import (media_restore, restart, run_until_crash,
                            take_image_copy)
from repro.system import System, SystemConfig
from repro.verify import ConsistencyError, audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def stage(seed=31, rows=150):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16, merge_fanin=4),
                    seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(system, table,
                            WorkloadSpec(operations=30, workers=2,
                                         think_time=0.8), seed=seed)
    drive(system, driver.preload(rows), name="preload")
    return system, table, driver


def test_media_restore_of_table_data():
    system, table, driver = stage()
    image = take_image_copy(system)

    def more():
        txn = system.txns.begin()
        yield from table.insert(txn, (99_999, "after-copy"))
        yield from txn.commit()

    drive(system, more())
    system.log.flush()
    restored = media_restore(image, system.log,
                             config=system.config,
                             current_system=system)
    values = sorted(rec.values for _rid, rec
                    in restored.tables["t"].audit_records())
    expected = sorted(rec.values for _rid, rec in table.audit_records())
    assert values == expected
    assert (99_999, "after-copy") in values  # replayed from the log


def test_nsf_index_recoverable_from_pre_build_image():
    """Section 2.2.3: 'media recovery can be supported without the user
    being forced to take an image copy of the index immediately after
    the index build completes' -- because NSF's IB logged every insert."""
    system, table, driver = stage(seed=32)
    image = take_image_copy(system)  # BEFORE the index exists

    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None
    system.log.flush()

    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    audit_index(restored, restored.indexes["idx"])


def test_sf_index_not_recoverable_from_pre_build_image():
    """The flip side: SF's bulk load is unlogged, so a pre-build image
    copy plus the log cannot rebuild the index (its owner must dump it
    after the build)."""
    system, table, driver = stage(seed=33)
    image = take_image_copy(system)

    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None
    system.log.flush()

    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    with pytest.raises(ConsistencyError, match="missing"):
        audit_index(restored, restored.indexes["idx"])


def test_sf_index_recoverable_from_post_build_image():
    """Taking the image copy after the SF build (the paper's implied
    operational requirement) makes media recovery work."""
    system, table, driver = stage(seed=34)
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None

    image = take_image_copy(system)  # AFTER the build (tree snapshot in)

    def more():
        txn = system.txns.begin()
        yield from table.insert(txn, (77_777, "post-copy"))
        yield from txn.commit()

    drive(system, more())
    system.log.flush()
    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    audit_index(restored, restored.indexes["idx"])
    keys = [entry_key(e) for e in
            restored.indexes["idx"].tree.all_entries()]
    assert (77_777,) in keys  # the post-copy insert replayed into it


def test_media_restore_rolls_back_in_flight_txns():
    system, table, driver = stage(seed=35)
    image = take_image_copy(system)

    def hang():
        txn = system.txns.begin()
        yield from table.insert(txn, (55_555, "uncommitted"))
        system.log.flush()

    drive(system, hang())
    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    values = [rec.values for _rid, rec
              in restored.tables["t"].audit_records()]
    assert (55_555, "uncommitted") not in values


def test_a_crash_after_media_restore_comes_back_to_the_restored_index():
    """The image copy is the restored tree's stable image as well: a
    crash before that tree's next force must restart from it (restart
    redo begins at the checkpoint, not at the start of the log), not
    from an empty tree."""
    system, table, driver = stage(seed=34)
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None
    image = take_image_copy(system)
    system.log.flush()
    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    forces = restored.metrics.get("index.forces")
    run_until_crash(restored, restored.sim.now + 1.0)
    recovered, _state = restart(restored)
    assert recovered.metrics.get("index.forces") == forces  # none between
    descriptor = recovered.indexes["idx"]
    assert descriptor.state is IndexState.AVAILABLE
    audit_index(recovered, descriptor)
    # and the copy itself is untouched by whatever the restored tree forces
    before = dict(image.trees["idx"].pages)
    drive(recovered, table_insert(recovered, (88_888, "after-restore")))
    descriptor.tree.force()
    assert image.trees["idx"].pages == before
    assert descriptor.tree.stable_image().pages != before


def table_insert(system, row):
    txn = system.txns.begin()
    yield from system.tables["t"].insert(txn, row)
    yield from txn.commit()


def test_two_restores_from_one_log_are_equal_and_leave_it_as_it_was():
    """Recovery's own records (the loser's CLRs and END, the closing
    checkpoint) go to the restored system's copy of the log: the archive
    keeps its last LSN, so a second restore from it replays what the
    first did and comes back to the same state."""
    system, table, driver = stage(seed=36)
    image = take_image_copy(system)  # before the index exists
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None

    def hang():
        txn = system.txns.begin()
        yield from table.insert(txn, (55_555, "uncommitted"))
        system.log.flush()

    drive(system, hang())
    last_lsn, flushed_lsn = system.log.last_lsn, system.log.flushed_lsn

    def restore():
        restored = media_restore(image, system.log, config=system.config,
                                 current_system=system)
        assert restored.log is not system.log
        assert (system.log.last_lsn, system.log.flushed_lsn) \
            == (last_lsn, flushed_lsn)
        audit_index(restored, restored.indexes["idx"])
        return (sorted(rec.values for _rid, rec
                       in restored.tables["t"].audit_records()),
                list(restored.indexes["idx"].tree.all_entries()),
                restored.log.last_lsn)

    first, second = restore(), restore()
    assert first == second
    assert first[2] > last_lsn  # recovery logged, on its own copy
    assert (55_555, "uncommitted") not in first[0]
