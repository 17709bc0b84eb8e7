"""E10 -- Pseudo-deleted key cleanup (section 2.2.4).

Claim: "pseudo-deleted keys can cause unnecessary page splits and cause
more pages to be allocated for the index than are actually required";
background garbage collection reclaims them, using the Commit_LSN check
or conditional instant locks.
"""

from repro.bench import bench_config, print_table
from repro.core import IndexSpec, NSFIndexBuilder, cleanup_pseudo_deleted
from repro.system import System
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def one_run(delete_weight, seed=101):
    system = System(bench_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=60, workers=3, think_time=0.5,
                        rollback_fraction=0.25,
                        delete_weight=delete_weight,
                        insert_weight=1.0, update_weight=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    pre = system.spawn(driver.preload(400), name="preload")
    system.run()
    assert pre.error is None
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None

    descriptor = system.indexes["idx"]
    tree = descriptor.tree
    live = tree.key_count()
    tombstones_before = len(tree.pseudo_deleted)
    pages_before = tree.page_count
    gc = system.spawn(cleanup_pseudo_deleted(system, descriptor),
                      name="gc")
    system.run()
    assert gc.error is None
    audit_index(system, descriptor)
    tombstones_after = len(tree.pseudo_deleted)
    return {
        "live": live,
        "tombstones_before": tombstones_before,
        "tombstones_after": tombstones_after,
        "pages_before": pages_before,
        "removed": gc.result,
        "fast_path": system.metrics.get("gc.commit_lsn_fast_path"),
    }


def run_e10():
    rows = []
    for delete_weight in (0.5, 1.5, 3.0):
        out = one_run(delete_weight)
        rows.append([
            delete_weight,
            out["live"],
            out["tombstones_before"],
            out["removed"],
            out["tombstones_after"],
            out["pages_before"],
            out["fast_path"],
        ])
    return rows


def test_e10_pseudo_delete_cleanup():
    rows = run_e10()
    print_table(
        "E10: pseudo-delete garbage collection (section 2.2.4)",
        ["delete weight", "live keys", "tombstones before", "GC removed",
         "tombstones after", "index pages", "Commit_LSN fast path"],
        rows,
        note="heavier delete activity leaves more tombstones for GC; all "
             "committed tombstones are reclaimed.",
    )
    # delete-heavier workloads leave more tombstones
    assert rows[-1][2] >= rows[0][2]
    # GC removes every committed tombstone (no transactions are active)
    for row in rows:
        assert row[4] == 0
        assert row[3] == row[2]
