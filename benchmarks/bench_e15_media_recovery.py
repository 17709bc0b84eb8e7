"""E15 -- Media recovery and the image-copy asymmetry (section 2.2.3).

Claim: NSF -- "Logging by IB ensures that ... media recovery can be
supported without the user being forced to take an image (dump) copy of
the index immediately after the index build completes."  SF's bulk load
is unlogged (section 3.1), so SF carries the opposite operational rule:
dump the index after the build, or lose it to the next disk failure.
"""

from repro.bench import bench_config, print_table
from repro.core import IndexSpec, NSFIndexBuilder, SFIndexBuilder
from repro.recovery import media_restore, take_image_copy
from repro.system import System
from repro.verify import ConsistencyError, audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def one_case(builder_cls, copy_when, seed=151):
    system = System(bench_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(system, table,
                            WorkloadSpec(operations=30, workers=2,
                                         think_time=0.8), seed=seed)
    pre = system.spawn(driver.preload(200), name="preload")
    system.run()
    assert pre.error is None

    image = take_image_copy(system) if copy_when == "before" else None
    builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None
    if copy_when == "after":
        image = take_image_copy(system)
    system.log.flush()

    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    try:
        audit_index(restored, restored.indexes["idx"])
        verdict = "index recovered"
    except ConsistencyError:
        verdict = "INDEX LOST"
    log_records = restored.log.last_lsn
    return verdict, log_records


def run_e15():
    rows = []
    for builder_cls, label in ((NSFIndexBuilder, "nsf"),
                               (SFIndexBuilder, "sf")):
        for copy_when in ("before", "after"):
            verdict, log_records = one_case(builder_cls, copy_when)
            rows.append([label, f"image copy {copy_when} build",
                         verdict, log_records])
    return rows


def test_e15_media_recovery_asymmetry():
    rows = run_e15()
    print_table(
        "E15: media recovery from image copy + archived log "
        "(section 2.2.3)",
        ["algo", "dump policy", "outcome", "log records replayed"],
        rows,
        note="NSF's logged IB inserts rebuild the index from a pre-build "
             "dump; SF's unlogged bulk load cannot -- dump after build.",
    )
    verdicts = {(r[0], r[1].split()[2]): r[2] for r in rows}
    assert verdicts[("nsf", "before")] == "index recovered"
    assert verdicts[("nsf", "after")] == "index recovered"
    assert verdicts[("sf", "before")] == "INDEX LOST"
    assert verdicts[("sf", "after")] == "index recovered"
