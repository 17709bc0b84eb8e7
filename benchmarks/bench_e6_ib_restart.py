"""E6 -- Restarting NSF's key-insert phase (section 2.2.3).

Claim: "For assuring the restartability of the key insert phase of index
build, IB can periodically checkpoint the highest key that it has so far
inserted ...  Though there is no integrity problem in IB trying to insert
keys which were already inserted prior to the failure (since those
attempted reinsertions would be rejected ... and hence no log records
would be written), it does avoid unnecessary work after restart."

We crash NSF mid-insert under different checkpoint intervals and count
the duplicate-rejected re-inserts after resume.
"""

from repro.bench import bench_config, print_table
from repro.core import (
    BuildOptions,
    IndexSpec,
    NSFIndexBuilder,
    build_pre_undo,
    resume_build,
)
from repro.recovery import restart, run_until_crash
from repro.system import System
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def one_run(checkpoint_every_keys, seed=61, rows=600):
    system = System(bench_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(system, table, WorkloadSpec(), seed=seed)
    pre = system.spawn(driver.preload(rows), name="preload")
    system.run()
    assert pre.error is None

    options = BuildOptions(commit_every_keys=32,
                           checkpoint_every_keys=checkpoint_every_keys)
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]),
                              options=options)
    system.spawn(builder.run(), name="builder")

    # run until the insert phase is well underway, then crash
    while True:
        system.run(until=system.now() + 25)
        inserted = system.metrics.get("index.inserts.ib")
        if inserted >= rows // 2 or system.sim.live_processes == 0:
            break
    system.crash()

    recovered, state = restart(system, pre_undo=build_pre_undo)
    before = recovered.metrics.snapshot()
    resumed = resume_build(recovered, state)
    assert resumed is not None
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    assert proc.error is None
    delta = recovered.metrics.delta(before)
    audit_index(recovered, recovered.indexes["idx"])
    return {
        "phase": state.get("phase"),
        "rejected": delta.get("index.duplicate_rejections.ib", 0),
        "reinserted": delta.get("index.inserts.ib", 0),
        "log_records": delta.get("wal.records.ib", 0),
    }


def run_e6():
    rows = []
    for interval in (None, 512, 128, 64):
        outcome = one_run(interval)
        rows.append([
            interval or "none (restart merge from runs)",
            outcome["phase"],
            outcome["rejected"],
            outcome["reinserted"],
            outcome["log_records"],
        ])
    return rows


def test_e6_insert_phase_restart():
    rows = run_e6()
    print_table(
        "E6: NSF insert-phase crash at ~50% -- wasted re-inserts vs "
        "checkpoint interval (section 2.2.3)",
        ["ckpt every N keys", "resume phase", "re-inserts rejected",
         "keys inserted after resume", "IB log recs after resume"],
        rows,
        note="rejected re-inserts write no log records; checkpoints trade "
             "checkpoint overhead against wasted work after restart.",
    )
    # No checkpointing wastes the most work; the tightest interval the
    # least.
    wasted = [r[2] for r in rows]
    assert wasted[0] >= wasted[-1]
    assert wasted[0] > 0  # the scenario actually re-inserted something
