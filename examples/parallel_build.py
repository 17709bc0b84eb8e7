"""Partitioned parallel online index build: the P-sweep.

Section 7 of the paper sketches how the SF algorithm extends to multiple
concurrent scanners; ``BuildOptions.partitions`` turns that sketch on
for any side-file builder (``psf`` is the mode that has it on by
default).  The page space is range-partitioned into P shards, one simulated worker
process scans and sorts each shard (rendezvousing at a kernel barrier),
the per-shard runs are merged in parallel, and the usual bottom-up load
plus logged side-file drain finishes the build.  Updaters never block:
each update routes against the *per-partition scan frontier* -- the
vector generalization of the serial Target-RID < Current-RID test.

This example builds the same index over the same table at P = 1, 2, 4
and 8 under a live update workload, and prints how the (simulated)
scan+sort phase shrinks while the result stays identical.

Run:  python examples/parallel_build.py
"""

from repro import (
    BuildOptions,
    IndexSpec,
    System,
    SystemConfig,
    WorkloadDriver,
    WorkloadSpec,
    audit_index,
)
from repro.core import get_builder
from repro.metrics import partition_values

ROWS = 1_500
PARTITIONS = (1, 2, 4, 8)


def run_build(partitions: int):
    system = System(SystemConfig(page_capacity=16, leaf_capacity=16),
                    seed=7)
    table = system.create_table("accounts", ["acct", "balance"])
    spec = WorkloadSpec(operations=120, workers=4, think_time=0.6,
                        rollback_fraction=0.08, key_space=10_000_000)
    driver = WorkloadDriver(system, table, spec, seed=7)
    preload = system.spawn(driver.preload(ROWS), name="preload")
    system.run()
    assert preload.error is None

    builder = get_builder("psf")(
        system, table, IndexSpec.of("accounts_by_acct", ["acct"]),
        options=BuildOptions(partitions=partitions))
    build = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert build.error is None
    audit_index(system, system.indexes["accounts_by_acct"])
    return system, builder


def vector(values) -> str:
    return "/".join(f"{value:.0f}" for value in values)


def main() -> None:
    print(f"parallel online index build over a {ROWS}-row accounts "
          f"table, P = {', '.join(map(str, PARTITIONS))}\n")
    header = (f"{'P':>2} {'scan+sort':>10} {'speedup':>8} {'build':>8} "
              f"{'merge%':>7} {'entries':>8}  pages/shard "
              f"(side-file/shard)")
    print(header)
    print("-" * len(header))
    baseline = None
    for partitions in PARTITIONS:
        system, builder = run_build(partitions)
        scan = builder.timings["scan_done"] - builder.timings["start"]
        total = builder.timings["done"] - builder.timings["start"]
        merge = builder.timings.get("pmerge_done", 0.0) \
            - builder.timings.get("scan_done", 0.0)
        baseline = baseline or scan
        pages = partition_values(system.metrics, "psf.pages_scanned",
                                 partitions)
        sidefile = partition_values(system.metrics,
                                    "psf.sidefile_appends", partitions)
        entries = system.indexes["accounts_by_acct"].tree.key_count()
        print(f"{partitions:>2} {scan:>10.1f} {baseline / scan:>7.2f}x "
              f"{total:>8.1f} {100 * merge / total:>6.1f}% "
              f"{entries:>8}  {vector(pages)} ({vector(sidefile)})")
    print("\nevery row audited clean against the table; the scan+sort "
          "phase scales with P\nwhile updaters keep running -- the "
          "barrier hands the per-shard runs to parallel\nmergers, and "
          "the side-file drain replays the updates each shard's "
          "frontier had\nalready passed.")


if __name__ == "__main__":
    main()
