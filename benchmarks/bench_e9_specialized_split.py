"""E9 -- NSF's specialized IB split (section 2.3.1).

Claim: "During a split, if there are any keys on the leaf which are higher
than the key that IB is attempting to insert ... IB can move those higher
keys alone to a new leaf page ...  This approach tries to mimic what
happens in a bottom-up build.  As a consequence, if the concurrent update
activities by transactions are not significant, then the trees generated
by NSF and by bottom-up build should be close in terms of clustering and
the cost of tree creation."

Ablation: NSF with and without the specialized split, across update rates.
"""

from repro.bench import bench_config, print_table
from repro.btree.tree import BTree, IBCursor
from repro.core import IndexSpec, NSFIndexBuilder
from repro.system import System
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def one_run(specialized, operations, seed=91):
    system = System(bench_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table,
        WorkloadSpec(operations=operations, workers=3, think_time=0.5),
        seed=seed)
    pre = system.spawn(driver.preload(500), name="preload")
    system.run()
    assert pre.error is None

    if not specialized:
        # ablate: force every IB split down the normal half-split path
        original = BTree._insert_sorted

        def normal_only(self, leaf, entry, path=None,
                        specialized_for_ib=False):
            return original(self, leaf, entry, path,
                            specialized_for_ib=False)

        BTree._insert_sorted = normal_only
    try:
        builder = NSFIndexBuilder(system, table,
                                  IndexSpec.of("idx", ["k"]))
        proc = system.spawn(builder.run(), name="builder")
        clustering_at_end = {}

        def watcher():
            from repro.sim.kernel import Join
            yield Join(proc)
            clustering_at_end["v"] = \
                system.indexes["idx"].tree.clustering_factor()

        system.spawn(watcher(), name="watch")
        if operations:
            driver.spawn_workers()
        system.run()
        if proc.error is not None:
            raise proc.error
    finally:
        if not specialized:
            BTree._insert_sorted = original
    audit_index(system, system.indexes["idx"])
    return {
        "clustering": clustering_at_end["v"],
        "keys_moved": system.metrics.get("index.keys_moved"),
        "splits": system.metrics.get("index.splits"),
        "pages": system.metrics.get("index.pages_allocated"),
    }


def run_e9():
    rows = []
    for operations in (0, 40, 120):
        for specialized in (True, False):
            out = one_run(specialized, operations)
            rows.append([
                "specialized" if specialized else "normal half-split",
                operations * 3,
                round(out["clustering"], 3),
                out["keys_moved"],
                out["splits"],
                out["pages"],
            ])
    return rows


def test_e9_specialized_split_ablation():
    rows = run_e9()
    print_table(
        "E9: NSF split policy ablation (section 2.3.1)",
        ["IB split policy", "txn ops", "clustering", "keys moved",
         "splits", "index pages"],
        rows,
        note="the specialized split moves only transaction-inserted higher "
             "keys, mimicking bottom-up build.",
    )
    table = {(r[0], r[1]): r for r in rows}
    # quiet table: specialized split == bottom-up (perfect clustering,
    # zero key movement, full pages)
    quiet = table[("specialized", 0)]
    assert quiet[2] == 1.0 and quiet[3] == 0
    # the normal split moves ~half a leaf every time and leaves pages
    # half empty (about twice the page count)
    quiet_normal = table[("normal half-split", 0)]
    assert quiet_normal[3] > 0
    assert quiet_normal[5] > quiet[5] * 1.7
    # under load, specialized still moves fewer keys (less CPU + logging)
    busy = table[("specialized", 360)]
    busy_normal = table[("normal half-split", 360)]
    assert busy[3] < busy_normal[3]
