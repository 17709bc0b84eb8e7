"""Integration tests: the three builders on a static table (no updates)."""

import pytest

from repro.btree.audit import audit_tree
from repro.btree.node import entry_key
from repro.core import (
    BuildOptions,
    IndexSpec,
    IndexState,
    NSFIndexBuilder,
    OfflineIndexBuilder,
    SFIndexBuilder,
)
from repro.errors import IndexBuildError
from repro.system import System, SystemConfig
from repro.verify import audit_index


def small_config():
    return SystemConfig(page_capacity=8, leaf_capacity=8,
                        branch_capacity=8, sort_workspace=16,
                        merge_fanin=4)


def populate(system, table, n, key_fn=lambda i: i):
    def body():
        txn = system.txns.begin("loader")
        for i in range(n):
            yield from table.insert(txn, (key_fn(i), f"payload-{i}"))
        yield from txn.commit()

    proc = system.spawn(body(), name="populate")
    system.run()
    assert proc.error is None


def run_builder(system, builder):
    proc = system.spawn(builder.run(), name="builder")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


BUILDER_CLASSES = [OfflineIndexBuilder, NSFIndexBuilder, SFIndexBuilder]


@pytest.mark.parametrize("builder_cls", BUILDER_CLASSES)
def test_build_on_static_table(builder_cls):
    system = System(small_config(), seed=1)
    table = system.create_table("emp", ["id", "payload"])
    populate(system, table, 200, key_fn=lambda i: (i * 37) % 1000)
    builder = builder_cls(system, table, IndexSpec.of("idx_id", ["id"]))
    run_builder(system, builder)
    descriptor = system.indexes["idx_id"]
    assert descriptor.state is IndexState.AVAILABLE
    report = audit_index(system, descriptor)
    assert report["entries"] == 200


@pytest.mark.parametrize("builder_cls", BUILDER_CLASSES)
def test_build_unique_index(builder_cls):
    system = System(small_config(), seed=2)
    table = system.create_table("emp", ["id", "payload"])
    populate(system, table, 150)  # distinct ids
    builder = builder_cls(system, table,
                          IndexSpec.of("idx_u", ["id"], unique=True))
    run_builder(system, builder)
    report = audit_index(system, system.indexes["idx_u"])
    assert report["entries"] == 150


@pytest.mark.parametrize("builder_cls", BUILDER_CLASSES)
def test_unique_build_fails_on_duplicate_data(builder_cls):
    system = System(small_config(), seed=3)
    table = system.create_table("emp", ["id", "payload"])
    populate(system, table, 50, key_fn=lambda i: i % 10)  # duplicates
    builder = builder_cls(system, table,
                          IndexSpec.of("idx_u", ["id"], unique=True))
    with pytest.raises(IndexBuildError):
        run_builder(system, builder)


def test_sf_and_offline_trees_perfectly_clustered():
    for builder_cls in (OfflineIndexBuilder, SFIndexBuilder):
        system = System(small_config(), seed=4)
        table = system.create_table("t", ["k", "p"])
        populate(system, table, 300, key_fn=lambda i: (i * 7919) % 5000)
        builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]))
        run_builder(system, builder)
        assert system.indexes["idx"].tree.clustering_factor() == 1.0


def test_nsf_static_tree_also_clustered_with_specialized_splits():
    system = System(small_config(), seed=5)
    table = system.create_table("t", ["k", "p"])
    populate(system, table, 300, key_fn=lambda i: (i * 7919) % 5000)
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    run_builder(system, builder)
    # No concurrent updates: NSF's specialized splits mimic bottom-up
    # (section 2.3.1), so clustering is perfect here too.
    assert system.indexes["idx"].tree.clustering_factor() == 1.0


def test_sf_ib_writes_no_log_records_for_bulk_load():
    system = System(small_config(), seed=6)
    table = system.create_table("t", ["k", "p"])
    populate(system, table, 200)
    before = system.metrics.get("wal.records.ib")
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    run_builder(system, builder)
    # Static table: empty side-file, so IB logged nothing at all (§3.1).
    assert system.metrics.get("wal.records.ib") == before
    assert system.metrics.get("index.inserts.bulk") == 200


def test_nsf_ib_logs_batched_key_inserts():
    system = System(small_config(), seed=7)
    table = system.create_table("t", ["k", "p"])
    populate(system, table, 200)
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    run_builder(system, builder)
    ib_records = system.metrics.get("wal.records.ib")
    assert 0 < ib_records < 200  # logged, but batched (multi-key records)


def test_multi_index_single_scan():
    """Section 6.2: several indexes in one data scan."""
    system = System(small_config(), seed=8)
    table = system.create_table("t", ["a", "b", "c"])

    def body():
        txn = system.txns.begin()
        for i in range(120):
            yield from table.insert(txn, (i, i % 10, f"c{i}"))
        yield from txn.commit()

    system.spawn(body(), name="pop")
    system.run()
    builder = SFIndexBuilder(system, table, [
        IndexSpec.of("idx_a", ["a"], unique=True),
        IndexSpec.of("idx_b", ["b"]),
        IndexSpec.of("idx_ba", ["b", "a"]),
    ])
    run_builder(system, builder)
    scans = system.metrics.get("build.pages_scanned")
    assert scans == table.page_count  # one scan, not three
    for name in ("idx_a", "idx_b", "idx_ba"):
        audit_index(system, system.indexes[name])


def test_offline_blocks_updates_for_whole_build():
    system = System(small_config(), seed=9)
    table = system.create_table("t", ["k", "p"])
    populate(system, table, 100)
    timeline = {}

    def updater():
        from repro.sim import Delay
        yield Delay(1)
        txn = system.txns.begin("upd")
        yield from table.insert(txn, (999, "late"))
        timeline["insert_done"] = system.now()
        yield from txn.commit()

    builder = OfflineIndexBuilder(system, table,
                                  IndexSpec.of("idx", ["k"]))
    build_proc = system.spawn(builder.run(), name="builder")
    system.spawn(updater(), name="upd")
    system.run()
    assert build_proc.error is None
    # The updater could only run after the build finished.
    assert timeline["insert_done"] >= builder.timings["done"]


def test_composite_key_columns():
    system = System(small_config(), seed=10)
    table = system.create_table("t", ["a", "b", "p"])

    def body():
        txn = system.txns.begin()
        for i in range(80):
            yield from table.insert(txn, (i % 4, i, f"p{i}"))
        yield from txn.commit()

    system.spawn(body(), name="pop")
    system.run()
    builder = SFIndexBuilder(system, table,
                             IndexSpec.of("idx_ab", ["a", "b"]))
    run_builder(system, builder)
    entries = [entry_key(e)
               for e in system.indexes["idx_ab"].tree.all_entries()]
    assert entries == sorted(entries)
    assert entries[0] == (0, 0)


@pytest.mark.parametrize("rows", [100, 128, 30])
def test_offline_load_charges_every_key(rows):
    """The bulk load costs keys x bulk_load_key_cost on the simulated
    clock, also for the keys after the last full batch of 64."""
    def build_time(key_cost):
        config = small_config()
        config.bulk_load_key_cost = key_cost
        system = System(config, seed=1)
        table = system.create_table("emp", ["id", "payload"])
        populate(system, table, rows, key_fn=lambda i: (i * 37) % 1000)
        started = system.now()
        run_builder(system, OfflineIndexBuilder(
            system, table, [IndexSpec.of("idx_id", ["id"]),
                            IndexSpec.of("idx_payload", ["payload"])]))
        return system.now() - started

    assert build_time(1.0) - build_time(0.0) == pytest.approx(2 * rows)
