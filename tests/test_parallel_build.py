"""Tests for the partitioned parallel online build (the shard scan).

The headline property is *equivalence*: the tree a ``ParallelSFBuilder``
produces at any shard count must be entry-for-entry identical --
including pseudo-deleted tombstones -- to the serial ``SFIndexBuilder``
run against the same table and the same update script.  Full concurrency
makes the comparison schedule-dependent (scan duration varies with P, so
updates land on different sides of the frontier), so the equivalence
workload is a single scripted worker released only after the scan
finishes; a separate property keeps multi-worker fully-concurrent runs
honest by auditing the result against the table instead.

The crash tests exercise the independent per-shard checkpoints: a crash
mid-scan must resume only the unfinished shards.
"""

import pytest

from repro.core import (
    BuildOptions,
    IndexSpec,
    IndexState,
    ParallelSFBuilder,
    SFIndexBuilder,
)
from repro.faultinject.injector import CRASH, FaultPlan
from repro.sweep import Scenario, run_plan, start_build
from repro.metrics import partition_values, skew_summary
from repro.sidefile import Partition, ScanFrontier, partition_pages
from repro.sim.kernel import Delay
from repro.storage import RID
from repro.storage.rid import rid_page
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

INFINITY_PAGE = rid_page(RID(2**62, 0))  # sentinel comparisons use < only


def small_config(**overrides):
    defaults = dict(page_capacity=8, leaf_capacity=8, branch_capacity=8,
                    sort_workspace=16, merge_fanin=4)
    defaults.update(overrides)
    return SystemConfig(**defaults)


# -- frontier unit tests ----------------------------------------------------


def test_partition_pages_splits_evenly_and_last_chases_eof():
    parts = partition_pages(10, 4)
    assert [(p.start, p.end) for p in parts] == \
        [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert [p.chases_eof for p in parts] == [False, False, False, True]
    assert sum(p.pages for p in parts) == 10


def test_partition_pages_more_shards_than_pages():
    parts = partition_pages(2, 4)
    assert len(parts) == 4
    assert parts[-1].chases_eof
    assert sum(p.pages for p in parts) == 2


def test_shard_of_routes_pages_and_extensions():
    frontier = ScanFrontier(partition_pages(9, 3))
    assert [frontier.shard_of(page) for page in range(9)] == \
        [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # pages appended after the build started belong to the EOF-chasing
    # last shard
    assert frontier.shard_of(42) == 2


def test_shard_of_bisect_matches_linear_reference():
    """The binary-searched ``shard_of`` must agree with the original
    linear scan on every shape: even splits, empty shards (duplicate
    range ends), single shard, and pages past the partitioned range."""
    def linear_shard_of(partitions, page_no):
        for partition in partitions[:-1]:
            if page_no < partition.end:
                return partition.index
        return partitions[-1].index

    shapes = [partition_pages(pages, shards)
              for pages in (0, 1, 2, 9, 10, 17, 64)
              for shards in (1, 2, 3, 4, 7)]
    # Hand-built shape with interior empty shards (start == end).
    shapes.append([Partition(0, 0, 4), Partition(1, 4, 4),
                   Partition(2, 4, 4), Partition(3, 4, 9),
                   Partition(4, 9, 12, chases_eof=True)])
    for partitions in shapes:
        frontier = ScanFrontier(partitions)
        top = max(p.end for p in partitions) + 5
        for page_no in range(top):
            assert frontier.shard_of(page_no) == \
                linear_shard_of(partitions, page_no), \
                (partitions, page_no)


def test_frontier_scanned_is_per_partition():
    frontier = ScanFrontier(partition_pages(9, 3))
    # shard 1 has scanned up to page 5; shards 0 and 2 not at all
    frontier.advance(1, RID(5, 0))
    assert not frontier.scanned(RID(0, 0))     # shard 0 untouched
    assert frontier.scanned(RID(4, 3))         # behind shard 1's frontier
    assert not frontier.scanned(RID(5, 0))     # at the frontier
    assert not frontier.scanned(RID(7, 0))     # shard 2 untouched
    frontier.finish(1)
    assert frontier.scanned(RID(5, 0))
    assert not frontier.done
    frontier.finish_all()
    assert frontier.done
    assert frontier.scanned(RID(1000, 63))


def test_frontier_rejects_backwards_advance():
    frontier = ScanFrontier(partition_pages(6, 2))
    frontier.advance(0, RID(2, 0))
    with pytest.raises(ValueError):
        frontier.advance(0, RID(1, 0))


def test_frontier_manifest_round_trip():
    frontier = ScanFrontier(partition_pages(10, 3))
    frontier.advance(0, RID(2, 0))
    frontier.finish(2)
    manifest = frontier.to_manifest()
    restored = ScanFrontier.from_manifest(manifest)
    assert restored.current == frontier.current
    assert [(p.start, p.end, p.chases_eof) for p in restored.partitions] \
        == [(p.start, p.end, p.chases_eof) for p in frontier.partitions]
    assert restored.to_manifest() == manifest


def test_single_partition_degenerates_to_serial_frontier():
    frontier = ScanFrontier(partition_pages(20, 1))
    assert len(frontier.partitions) == 1
    assert frontier.partitions[0].chases_eof
    frontier.advance(0, RID(7, 0))
    # identical semantics to the serial Target-RID < Current-RID test
    assert frontier.scanned(RID(6, 63))
    assert not frontier.scanned(RID(7, 0))


# -- per-partition metric helpers -------------------------------------------


def test_skew_summary_balanced_and_empty():
    assert skew_summary([])["skew"] == 0.0
    assert skew_summary([0.0, 0.0])["skew"] == 0.0
    balanced = skew_summary([5.0, 5.0, 5.0])
    assert balanced["skew"] == pytest.approx(1.0)
    lumpy = skew_summary([9.0, 1.0, 2.0])
    assert lumpy["skew"] == pytest.approx(9.0 / 4.0)
    assert lumpy["min"] == 1.0 and lumpy["max"] == 9.0


# -- equivalence ------------------------------------------------------------


def _entries(system, name="idx"):
    tree = system.indexes[name].tree
    return [(e[0], e[1], e in tree.pseudo_deleted)
            for e in tree.all_entries(include_pseudo_deleted=True)]


def _build_with_post_scan_workload(builder_cls, *, partitions=None,
                                   seed=7, preload=120, operations=40):
    """Build under a single scripted worker released after scan_done.

    With one sequential worker, the operation outcomes (RIDs, rollbacks,
    key choices) depend only on operation order, and releasing it after
    the scan means every update routes through the side-file -- so the
    final entry set is independent of how long the scan took, i.e. of P.
    """
    system = System(small_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=operations, workers=1,
                        rollback_fraction=0.2, think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    preload_proc = system.spawn(driver.preload(preload), name="preload")
    system.run()
    assert preload_proc.error is None

    options = BuildOptions(partitions=partitions) \
        if partitions is not None else None
    builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]),
                          options=options)
    build_proc = system.spawn(builder.run(), name="builder")

    def release_after_scan():
        while "scan_done" not in builder.timings:
            yield Delay(0.5)
        if operations:
            driver.spawn_workers()

    system.spawn(release_after_scan(), name="late-workload")
    system.run()
    if build_proc.error is not None:
        raise build_proc.error
    assert system.indexes["idx"].state is IndexState.AVAILABLE
    audit_index(system, system.indexes["idx"])
    return system, builder


@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_parallel_build_equivalent_to_serial(partitions):
    serial_sys, _ = _build_with_post_scan_workload(SFIndexBuilder)
    parallel_sys, builder = _build_with_post_scan_workload(
        ParallelSFBuilder, partitions=partitions)
    assert builder.partitions == partitions
    serial_entries = _entries(serial_sys)
    parallel_entries = _entries(parallel_sys)
    # the workload produced tombstones, so the comparison covers them
    assert any(pseudo for _, _, pseudo in serial_entries)
    assert parallel_entries == serial_entries
    # the updates really did route through the side-file
    assert parallel_sys.metrics.get("sidefile.appends") > 0


def test_default_partition_count():
    _, builder = _build_with_post_scan_workload(
        ParallelSFBuilder, operations=0)
    assert builder.partitions == ParallelSFBuilder.default_partitions == 2


def test_psf_is_sf_with_partitions_defaulting_to_two():
    """The mode name is a row of data: the sharded scan is selected by
    ``options.partitions`` alone, for the ``sf`` builder as for ``psf``."""
    sf_sys, sf = _build_with_post_scan_workload(SFIndexBuilder, partitions=2)
    psf_sys, psf = _build_with_post_scan_workload(ParallelSFBuilder)
    assert sf.timings == psf.timings
    assert _entries(sf_sys) == _entries(psf_sys)
    assert dict(sf_sys.metrics.counters) == dict(psf_sys.metrics.counters)
    assert sf_sys.metrics.get("psf.scan_workers") == 2


# -- fully concurrent workloads ---------------------------------------------


@pytest.mark.parametrize("partitions", [2, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_parallel_build_under_concurrent_updates(partitions, seed):
    """Multi-worker updates racing the shard scans: the result must
    audit clean against the table (entry-for-entry vs serial is
    schedule-dependent here, so the table is the oracle)."""
    system = System(small_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=60, workers=3, rollback_fraction=0.15,
                        think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    preload = system.spawn(driver.preload(150), name="preload")
    system.run()
    assert preload.error is None

    builder = ParallelSFBuilder(system, table, IndexSpec.of("idx", ["k"]),
                                BuildOptions(partitions=partitions))
    proc = system.spawn(builder.run(), name="builder")
    worker_procs = driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    for wproc in worker_procs:
        assert wproc.error is None
    audit_index(system, system.indexes["idx"])
    assert system.metrics.get("psf.scan_workers") == partitions
    assert system.metrics.get("build.sidefile_drained") \
        == system.metrics.get("sidefile.appends")
    # every shard scanned its slice of the page space
    pages = partition_values(system.metrics, "psf.pages_scanned",
                             partitions)
    assert all(count > 0 for count in pages)
    assert sum(pages) == system.metrics.get("build.pages_scanned")


def test_parallel_never_quiesces():
    system, _ = _build_with_post_scan_workload(
        ParallelSFBuilder, partitions=4)
    assert system.metrics.stat("build.quiesce_wait").maximum == 0.0


def test_parallel_scan_speedup_on_simulated_clock():
    _, serial = _build_with_post_scan_workload(
        ParallelSFBuilder, partitions=1, operations=0)
    _, parallel = _build_with_post_scan_workload(
        ParallelSFBuilder, partitions=4, operations=0)
    serial_scan = serial.timings["scan_done"] - serial.timings["start"]
    parallel_scan = parallel.timings["scan_done"] - parallel.timings["start"]
    assert serial_scan / parallel_scan >= 1.5


# -- crash and resume -------------------------------------------------------


def _psf_sweep_config(**overrides):
    kwargs = dict(builder="psf", partitions=4, records=150, operations=10,
                  buffer_frames=1024, seed=3)
    kwargs.update(overrides)
    return Scenario(**kwargs)


@pytest.mark.parametrize("site,hit", [
    ("psf.worker.scan_page", 12),
    ("psf.worker_done", 2),
    ("psf.manifest_checkpoint", 3),
    ("psf.merge_batch", 1),
    ("psf.barrier", 1),
])
def test_crash_during_parallel_phases_recovers(site, hit):
    result = run_plan(_psf_sweep_config(), FaultPlan(site, hit, CRASH))
    assert result.fired, f"{site}#{hit} never fired"
    assert result.passed, result.detail


def test_resume_completes_only_unfinished_shards():
    """Crash as the third shard seals its runs: the fault fires before
    that shard's own manifest checkpoint, so exactly two shards are
    durably finished -- the resumed build must skip those two and rescan
    only the rest."""
    from repro.core import build_pre_undo, resume_build
    from repro.recovery import restart

    config = _psf_sweep_config()
    injector = config.make_injector(FaultPlan("psf.worker_done", 3, CRASH))
    system, _driver, _proc = start_build(config, injector)
    system.run()
    assert injector.fired is not None and system.sim.crashed

    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert isinstance(resumed, ParallelSFBuilder)
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    assert proc.error is None
    skipped = recovered.metrics.get("psf.skipped_shards")
    rescanned = recovered.metrics.get("psf.resumed_shards")
    assert skipped >= 2, "finished shards were not skipped"
    assert rescanned >= 1
    assert skipped + rescanned == config.partitions
    # the skipped shards' pages were not read again
    pages = partition_values(recovered.metrics, "psf.pages_scanned",
                             config.partitions)
    assert sum(1 for count in pages if count == 0) == skipped
    audit_index(recovered, recovered.indexes["idx"])
