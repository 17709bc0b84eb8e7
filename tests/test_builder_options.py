"""Tests for builder options: parallel readers, fill factor, checkpoint
intervals, side-file sorting, and drain-phase crashes."""

import pytest

from repro.core import (
    BuildOptions,
    IndexSpec,
    NSFIndexBuilder,
    OfflineIndexBuilder,
    SFIndexBuilder,
    build_pre_undo,
    get_builder,
    resume_build,
)
from repro.recovery import restart, run_until_crash
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def stage(seed=3, rows=300, operations=0, config=None):
    system = System(config or SystemConfig(page_capacity=8,
                                           leaf_capacity=8,
                                           sort_workspace=16,
                                           merge_fanin=4), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=operations, workers=2, think_time=0.8,
                        rollback_fraction=0.15)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    drive(system, driver.preload(rows), name="preload")
    return system, table, driver


def run_build(system, table, driver, builder_cls, options,
              operations=0):
    builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]),
                          options=options)
    proc = system.spawn(builder.run(), name="builder")
    if operations:
        driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    return builder


@pytest.mark.parametrize("builder_cls", [NSFIndexBuilder,
                                         OfflineIndexBuilder])
def test_parallel_readers_produce_identical_index(builder_cls):
    contents = []
    for readers in (1, 4):
        system, table, driver = stage()
        run_build(system, table, driver, builder_cls,
                  BuildOptions(parallel_readers=readers))
        audit_index(system, system.indexes["idx"])
        contents.append(sorted(system.indexes["idx"].tree.all_entries()))
    assert contents[0] == contents[1]


@pytest.mark.parametrize("mode", ["sf", "psf", "multi", "rebuild"])
def test_side_file_modes_refuse_parallel_readers(mode):
    """Current-RID needs one ordered scan position per page range, so a
    side-file build used to drop ``parallel_readers`` without a word;
    its parallel scan is ``partitions``."""
    system, table, driver = stage()
    if mode == "rebuild":
        run_build(system, table, driver, SFIndexBuilder, None)

    def build(**options):
        options = BuildOptions(**options)
        if mode == "rebuild":
            return system.rebuild_index("idx", options=options)
        return get_builder(mode)(system, table, IndexSpec.of("idx", ["k"]),
                                 options=options)

    with pytest.raises(ValueError, match="partitions"):
        build(parallel_readers=3)
    with pytest.raises(ValueError, match="at least one partition"):
        build(partitions=0)
    assert build(parallel_readers=1).options.parallel_readers == 1


@pytest.mark.parametrize("mode", ["sf", "psf", "multi", "rebuild"])
@pytest.mark.parametrize("drain_batch", [0, -1])
def test_side_file_modes_refuse_an_empty_drain_batch(mode, drain_batch):
    """A drain batch below one entry applied nothing and never advanced:
    the build hung in its drain forever.  It is refused up front."""
    system, table, driver = stage()
    if mode == "rebuild":
        run_build(system, table, driver, SFIndexBuilder, None)
    options = BuildOptions(drain_batch=drain_batch)
    with pytest.raises(ValueError, match="drain batch"):
        if mode == "rebuild":
            system.rebuild_index("idx", options=options)
        else:
            get_builder(mode)(system, table, IndexSpec.of("idx", ["k"]),
                              options=options)


def test_rebuild_refuses_partitions_instead_of_ignoring_them():
    """A rebuild loads the sealed runs and never scans, so there is
    nothing for ``partitions`` to shard: it used to be dropped without a
    word while the ``build`` span still claimed ``partitions: 4``."""
    system, table, driver = stage()
    run_build(system, table, driver, SFIndexBuilder, None)
    with pytest.raises(ValueError, match="partitions=4.*never scans"):
        system.rebuild_index("idx", BuildOptions(partitions=4))
    assert system.rebuild_index("idx", BuildOptions()).partitions is None


def test_parallel_readers_shorten_scan():
    durations = {}
    for readers in (1, 4):
        system, table, driver = stage(
            rows=600,
            config=SystemConfig(page_capacity=8, leaf_capacity=8,
                                sort_workspace=16, merge_fanin=4,
                                buffer_frames=16))
        builder = run_build(system, table, driver, NSFIndexBuilder,
                            BuildOptions(parallel_readers=readers,
                                         prefetch_pages=4))
        durations[readers] = (builder.timings["scan_done"]
                              - builder.timings["descriptor_done"])
    assert durations[4] < durations[1] / 2


def test_parallel_readers_under_workload_consistent():
    system, table, driver = stage(operations=40)
    run_build(system, table, driver, NSFIndexBuilder,
              BuildOptions(parallel_readers=3), operations=40)
    audit_index(system, system.indexes["idx"])


def test_parallel_readers_scan_is_one_span_and_fires_the_scan_sites():
    from repro.faultinject.injector import FaultInjector
    from repro.obs import Trace, enable_tracing

    system, table, driver = stage()
    recorder = enable_tracing(system)
    injector = FaultInjector().install(system)
    run_build(system, table, driver, NSFIndexBuilder,
              BuildOptions(parallel_readers=3))
    scans = [span for span in Trace(recorder.events).spans
             if span.name == "scan"]
    assert len(scans) == 1
    assert scans[0].end_attrs["pages"] == table.page_count
    assert injector.hits["build.scan_page"] == table.page_count
    assert injector.hits["build.sort_push"] == 300


def test_fill_factor_leaves_headroom():
    system, table, driver = stage()
    run_build(system, table, driver, SFIndexBuilder,
              BuildOptions(fill_free_fraction=0.5))
    tree = system.indexes["idx"].tree
    for leaf in tree.leaf_chain():
        assert len(leaf.entries) <= tree.leaf_capacity // 2 + 1
    audit_index(system, system.indexes["idx"])


def test_fill_factor_costs_pages():
    pages = {}
    for fraction in (0.0, 0.5):
        system, table, driver = stage()
        run_build(system, table, driver, SFIndexBuilder,
                  BuildOptions(fill_free_fraction=fraction))
        pages[fraction] = system.indexes["idx"].tree.page_count
    assert pages[0.5] > pages[0.0] * 1.5


def test_scan_checkpoint_interval_counts():
    counts = {}
    for every in (8, 32):
        system, table, driver = stage(rows=320)  # 40 pages
        run_build(system, table, driver, SFIndexBuilder,
                  BuildOptions(checkpoint_every_pages=every))
        counts[every] = system.metrics.get("build.scan_checkpoints")
    assert counts[8] >= 3           # checkpoints actually happen
    assert counts[8] > counts[32]   # tighter interval -> more of them


def test_sort_sidefile_option_consistent_with_sequential():
    results = []
    for sort_sidefile in (False, True):
        system, table, driver = stage(seed=17, operations=50)
        run_build(system, table, driver, SFIndexBuilder,
                  BuildOptions(sort_sidefile=sort_sidefile),
                  operations=50)
        audit_index(system, system.indexes["idx"])
        results.append(sorted(
            e for e in system.indexes["idx"].tree.all_entries()))
    assert results[0] == results[1]


def test_sf_drain_phase_crash_and_resume():
    """Crash specifically inside the side-file drain, resume, audit."""
    config = SystemConfig(page_capacity=8, leaf_capacity=8,
                          sort_workspace=16, merge_fanin=4)
    system = System(config, seed=23)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=80, workers=3, think_time=0.4,
                        rollback_fraction=0.15)
    driver = WorkloadDriver(system, table, spec, seed=23)
    drive(system, driver.preload(400), name="preload")

    options = BuildOptions(checkpoint_every_pages=16,
                           checkpoint_every_keys=24)
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]),
                             options=options)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()

    # run until the drain phase has checkpointed at least once
    drained_phase_seen = False
    for _ in range(400):
        system.run(until=system.now() + 10)
        checkpoint = system.log.latest_checkpoint()
        if checkpoint is not None and checkpoint.info.get(
                "utility_state", {}).get("phase") == "drain":
            drained_phase_seen = True
            break
        if system.sim.live_processes == 0:
            break
    if not drained_phase_seen:
        pytest.skip("drain finished before a drain checkpoint this seed")
    system.run(until=system.now() + 5)
    system.crash()
    recovered, state = restart(system, pre_undo=build_pre_undo)
    assert state.get("phase") in ("drain", "done")
    resumed = resume_build(recovered, state)
    if resumed is not None:
        proc = recovered.spawn(resumed.run(), name="resumed")
        recovered.run()
        assert proc.error is None
    audit_index(recovered, recovered.indexes["idx"])


def test_commit_interval_controls_ib_commits():
    counts = {}
    for commit_every in (32, 256):
        system, table, driver = stage(rows=400)
        run_build(system, table, driver, NSFIndexBuilder,
                  BuildOptions(commit_every_keys=commit_every))
        counts[commit_every] = system.metrics.get("build.ib_commits")
    assert counts[32] > counts[256]


@pytest.mark.parametrize("builder_cls,site,hit,phase", [
    (SFIndexBuilder, "build.scan_page", 20, "scan"),
    (SFIndexBuilder, "sf.load_batch", 3, "load"),
    (NSFIndexBuilder, "build.scan_page", 20, "scan"),
    (NSFIndexBuilder, "nsf.insert_batch", 20, "insert"),
])
def test_resumed_build_keeps_its_options(builder_cls, site, hit, phase):
    """The utility checkpoint carries the non-default options, so the
    resumed builder runs with what the crashed one was started with."""
    from repro.faultinject.injector import CRASH, FaultInjector, FaultPlan

    options = BuildOptions(drain_batch=7, fill_free_fraction=0.4,
                           checkpoint_every_pages=8,
                           checkpoint_every_keys=48, commit_every_keys=24)
    system, table, driver = stage(operations=20, config=SystemConfig(
        page_capacity=8, leaf_capacity=8, sort_workspace=12, merge_fanin=4))
    FaultInjector(FaultPlan(site, hit, CRASH)).install(system)
    builder = builder_cls(system, table, IndexSpec.of("idx", ["k"]),
                          options=options)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert system.sim.crashed

    recovered, state = restart(system, pre_undo=build_pre_undo)
    assert state["phase"] == phase
    resumed = resume_build(recovered, state)
    assert resumed.options == options
    assert resumed.options is not options
    # the done build lets go of its sorters: record the ones it restores
    restored = []
    restore_sorters = resumed._restore_sorters

    def recording_restore(*args, **kwargs):
        sorters, position = restore_sorters(*args, **kwargs)
        restored.extend(sorters.values())
        return sorters, position

    resumed._restore_sorters = recording_restore
    drive(recovered, resumed.run(), name="resumed")
    audit_index(recovered, recovered.indexes["idx"])
    assert recovered.config.sort_workspace == 12
    if phase == "scan":  # the resumed scan sorted with the workspace
        assert [sorter.workspace_size for sorter in restored] == [12]


def test_default_options_add_no_checkpoint_key():
    system, table, driver = stage()
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    system.spawn(builder.run(), name="builder")
    system.run(until=system.now() + 5)
    state = system.log.latest_checkpoint().info["utility_state"]
    assert state["builder"] == "sf" and "options" not in state
