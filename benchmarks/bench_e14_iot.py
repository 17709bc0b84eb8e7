"""E14 -- SF over an index-organized table (section 6.2).

Claim: "Our algorithms can also be easily extended to the storage model in
which the records are stored in the primary index ...  In SF, in the place
of Current-RID, we would use the current-key as the scan position."
"""

import random

from repro.bench import print_table
from repro.core import IndexSpec
from repro.core.iot import IOTable, SFIotBuilder
from repro.sim import Delay
from repro.system import System, SystemConfig
from repro.verify import audit_index


def one_run(update_steps, seed=141):
    system = System(SystemConfig(leaf_capacity=8, sort_workspace=32),
                    seed=seed)
    table = IOTable(system, "iot", ["pk", "city", "amount"])
    system.tables["iot"] = table

    def preload():
        txn = system.txns.begin()
        for i in range(300):
            yield from table.insert(txn, (i, f"city-{i % 11}", i))
        yield from txn.commit()

    pre = system.spawn(preload(), name="preload")
    system.run()
    assert pre.error is None

    builder = SFIotBuilder(system, table, IndexSpec.of("idx_city", ["city"]))

    def updater():
        rng = random.Random(seed ^ 0xABC)
        for step in range(update_steps):
            yield Delay(rng.uniform(0.1, 0.6))
            txn = system.txns.begin()
            live = sorted(table.rows)
            choice = rng.random()
            if choice < 0.4 or not live:
                yield from table.insert(
                    txn, (1000 + step, f"new-{step % 4}", step))
            elif choice < 0.7:
                yield from table.delete(txn, rng.choice(live))
            else:
                pk = rng.choice(live)
                yield from table.update(
                    txn, pk, (pk, f"upd-{step % 3}", step))
            if rng.random() < 0.15:
                yield from txn.rollback()
            else:
                yield from txn.commit()

    build = system.spawn(builder.run(), name="builder")
    upd = system.spawn(updater(), name="updater")
    system.run()
    assert build.error is None and upd.error is None
    report = audit_index(system, system.indexes["idx_city"])
    return {
        "entries": report["entries"],
        "clustering": report["clustering"],
        "drained": system.metrics.get("build.sidefile_drained"),
    }


def run_e14():
    rows = []
    for update_steps in (0, 30, 90):
        out = one_run(update_steps)
        rows.append([update_steps, out["entries"],
                     round(out["clustering"], 2), out["drained"]])
    return rows


def test_e14_index_organized_table():
    rows = run_e14()
    print_table(
        "E14: SF secondary build over an index-organized table "
        "(section 6.2)",
        ["txn ops", "final entries", "clustering", "side-file drained"],
        rows,
        note="scan position is the current primary key instead of "
             "Current-RID; every run is audited against the table.",
    )
    assert rows[0][3] == 0          # quiet: empty side-file
    assert rows[-1][3] > 0          # busy: current-key routing fired
    assert rows[0][2] == 1.0        # quiet: perfectly clustered
