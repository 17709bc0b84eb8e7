"""Multi-index single-scan builds (the ``multi`` mode, section 6.2).

The tentpole properties: K indexes come out of ONE data scan (pages
scanned equals the table's page count, not K times it), each index
flips AVAILABLE independently and in spec order, an empty table flips
everything straight to AVAILABLE, and a crash between per-index flips
resumes only the unfinished indexes -- no rescan, no reload of the
finished ones.
"""

import pytest

from repro.bench.runner import check
from repro.core import (
    BuildOptions,
    IndexSpec,
    IndexState,
    MultiIndexBuilder,
    NSFIndexBuilder,
    SFIndexBuilder,
    build_pre_undo,
    get_builder,
    resume_build,
)
from repro.faultinject.injector import CRASH, FaultInjector, FaultPlan
from repro.metrics import partition_values
from repro.multibuild import bench
from repro.recovery import restart
from repro.sweep import Scenario, start_build
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

SPECS3 = [IndexSpec.of("i_k", ["k"]),
          IndexSpec.of("i_p", ["p"]),
          IndexSpec.of("i_kp", ["k", "p"])]


def small_config(**overrides):
    kwargs = dict(page_capacity=8, leaf_capacity=8, branch_capacity=8,
                  sort_workspace=16, merge_fanin=4)
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def drive(system, body, name="proc"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc


def preloaded(rows=200, seed=61, **config_overrides):
    system = System(small_config(**config_overrides), seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(system, table,
                            WorkloadSpec(operations=0), seed=seed)
    drive(system, driver.preload(rows), name="preload")
    return system, table


def specs_of(specs=SPECS3):
    return [IndexSpec.of(s.name, list(s.key_columns)) for s in specs]


# -- one scan, K indexes -----------------------------------------------------


def test_quiet_table_builds_k_indexes_from_one_scan():
    system, table = preloaded()
    pages_before = table.page_count
    builder = MultiIndexBuilder(system, table, specs_of())
    drive(system, builder.run(), name="builder")
    # the single shared scan touched every data page exactly once
    assert system.metrics.get("build.pages_scanned") == pages_before
    assert system.metrics.get("multibuild.indexes_flipped") == 3
    for spec in SPECS3:
        descriptor = system.indexes[spec.name]
        assert descriptor.state is IndexState.AVAILABLE
        audit_index(system, descriptor)


def test_multi_scan_is_one_third_of_sequential_builds():
    """The bench's headline claim, in miniature: K sequential builds
    scan K times the pages the shared-scan builder does."""
    system, table = preloaded()
    builder = MultiIndexBuilder(system, table, specs_of())
    drive(system, builder.run(), name="builder")
    multi_pages = system.metrics.get("build.pages_scanned")

    seq_system, seq_table = preloaded()
    for spec in specs_of():
        seq = SFIndexBuilder(seq_system, seq_table, [spec])
        drive(seq_system, seq.run(), name=f"builder-{spec.name}")
    assert seq_system.metrics.get("build.pages_scanned") == 3 * multi_pages


@pytest.mark.parametrize("seed", [71, 72])
def test_flips_are_independent_and_in_spec_order(seed):
    system, table = preloaded(seed=seed)
    spec = WorkloadSpec(operations=40, workers=2, rollback_fraction=0.1,
                        think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    builder = MultiIndexBuilder(system, table, specs_of())
    proc = system.spawn(builder.run(), name="builder")
    workers = driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    for wproc in workers:
        assert wproc.error is None
    flips = [builder.timings[f"drain_done:{s.name}"] for s in SPECS3]
    # index i is AVAILABLE strictly before index i+1 finishes loading:
    # the staircase, not one big flip at the end
    assert flips == sorted(flips)
    assert flips[0] < flips[-1]
    assert flips[-1] <= builder.timings["done"]
    for spec_ in SPECS3:
        audit_index(system, system.indexes[spec_.name])


def test_empty_table_flips_straight_available():
    system, table = preloaded(rows=0)
    builder = MultiIndexBuilder(system, table, specs_of())
    drive(system, builder.run(), name="builder")
    assert system.metrics.get("build.pages_scanned") == 0
    for spec in SPECS3:
        descriptor = system.indexes[spec.name]
        assert descriptor.state is IndexState.AVAILABLE
        assert descriptor.tree.key_count() == 0
        audit_index(system, descriptor)


# -- crash / resume ----------------------------------------------------------


def test_crash_between_flips_resumes_only_unfinished_indexes():
    """Crash right after index 1's flip is checkpointed: the resumed
    build must skip it outright -- no rescan, no reload -- and still
    bring indexes 2 and 3 online."""
    system, table = preloaded(seed=73)
    spec = WorkloadSpec(operations=20, workers=2, rollback_fraction=0.1,
                        think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=73)
    options = BuildOptions(checkpoint_every_pages=8,
                           checkpoint_every_keys=64,
                           commit_every_keys=32)
    builder = MultiIndexBuilder(system, table, specs_of(),
                                options=options)
    injector = FaultInjector(
        FaultPlan(site="multibuild.index_done", hit=1,
                  kind=CRASH)).install(system)
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert injector.fired is not None, "fault site never reached"
    assert proc.error is not None  # the injected power failure
    injector.uninstall()

    recovered, utility_state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, utility_state)
    assert isinstance(resumed, MultiIndexBuilder)
    drive(recovered, resumed.run(), name="resumed")
    # the finished index was skipped, and nothing was rescanned
    assert recovered.metrics.get("multibuild.resume_skipped_indexes") >= 1
    assert recovered.metrics.get("build.pages_scanned") == 0
    for spec_ in SPECS3:
        descriptor = recovered.indexes[spec_.name]
        assert descriptor.state is IndexState.AVAILABLE
        audit_index(recovered, descriptor)


# -- multi x P: shards feeding K independently flipped indexes ---------------


def _crash_multi_p2(site, hit):
    """Crash a K=3, P=2 build at ``site``#``hit``; return the recovered
    system, the surviving checkpoint and the resumed builder, run to the
    end."""
    scenario = Scenario(builder="multi", partitions=2, records=150,
                        operations=10, seed=3)
    assert scenario.label == "multi(P=2)"
    injector = scenario.make_injector(FaultPlan(site, hit, CRASH))
    system, _driver, _proc = start_build(scenario, injector)
    system.run()
    assert injector.fired is not None and system.sim.crashed
    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert type(resumed) is get_builder("multi")
    assert resumed.partitions == 2
    drive(recovered, resumed.run(), name="resumed")
    for spec in scenario.index_specs():
        descriptor = recovered.indexes[spec.name]
        assert descriptor.state is IndexState.AVAILABLE
        audit_index(recovered, descriptor)
    return recovered, state


def test_sharded_multi_crash_between_flips_skips_the_flipped_index():
    recovered, state = _crash_multi_p2("multibuild.index_done", 1)
    assert [entry["status"] for entry in state["manifest"].values()] \
        == ["done", "pending", "pending"]
    assert recovered.metrics.get("multibuild.resume_skipped_indexes") == 1
    # past the scan the shard source is never consulted again
    assert recovered.metrics.get("psf.resumed_shards") == 0
    assert recovered.metrics.get("build.pages_scanned") == 0


def test_sharded_multi_crash_in_the_scan_resumes_only_unfinished_shards():
    """The second shard to seal its runs crashes before its own manifest
    checkpoint: one shard is durably finished, the other rescans -- and
    every sorter of both shards fed all three indexes."""
    recovered, state = _crash_multi_p2("psf.worker_done", 2)
    assert state["phase"] == "pscan"
    assert sorted(raw["done"] for raw in state["shards"].values()) \
        == [False, True]
    assert recovered.metrics.get("psf.skipped_shards") == 1
    assert recovered.metrics.get("psf.resumed_shards") == 1
    pages = partition_values(recovered.metrics, "psf.pages_scanned", 2)
    assert sorted(count == 0 for count in pages) == [False, True]
    assert recovered.metrics.get("multibuild.indexes_flipped") == 3


# -- the NSF discipline ------------------------------------------------------


def test_nsf_discipline_builds_k_indexes_under_load():
    """Section 6.2's NSF note: the existing NSF builder already handles
    K specs against one shared scan."""
    system, table = preloaded(seed=74)
    spec = WorkloadSpec(operations=30, workers=2, rollback_fraction=0.1,
                        think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=74)
    builder = NSFIndexBuilder(system, table, specs_of())
    proc = system.spawn(builder.run(), name="builder")
    workers = driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    for wproc in workers:
        assert wproc.error is None
    for spec_ in SPECS3:
        descriptor = system.indexes[spec_.name]
        assert descriptor.state is IndexState.AVAILABLE
        audit_index(system, descriptor)


def test_nsf_crash_between_indexes_resumes_from_the_manifest():
    """Crash as NSF finishes inserting its second index: the first is
    done, the second checkpointed mid-insert, the third pending.  The
    resume is the one every mode shares -- no rescan, the finished index
    skipped and AVAILABLE from the start, the others completed."""
    system, table = preloaded(seed=75)
    spec = WorkloadSpec(operations=30, workers=2, rollback_fraction=0.1,
                        think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=75)
    options = BuildOptions(checkpoint_every_pages=8,
                           checkpoint_every_keys=64, commit_every_keys=32)
    builder = NSFIndexBuilder(system, table, specs_of(), options=options)
    injector = FaultInjector(
        FaultPlan(site="nsf.insert_done", hit=2, kind=CRASH)).install(system)
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert injector.fired is not None and proc.error is not None
    injector.uninstall()

    recovered, state = restart(system, pre_undo=build_pre_undo)
    assert state["phase"] == "insert"
    assert [entry["status"] for entry in state["manifest"].values()] \
        == ["done", "loading", "pending"]
    resumed = resume_build(recovered, state)
    assert isinstance(resumed, NSFIndexBuilder)
    at_resume = []

    def watch():
        at_resume.extend(recovered.indexes[s.name].state for s in SPECS3)
        yield from ()

    recovered.spawn(resumed.run(), name="resumed")
    drive(recovered, watch(), name="watch")
    assert at_resume == [IndexState.AVAILABLE, IndexState.BUILDING,
                         IndexState.BUILDING]
    assert recovered.metrics.get("multibuild.resume_skipped_indexes") == 1
    assert recovered.metrics.get("build.pages_scanned") == 0
    for spec_ in SPECS3:
        descriptor = recovered.indexes[spec_.name]
        assert descriptor.state is IndexState.AVAILABLE
        audit_index(recovered, descriptor)


# -- the bench suite's self-gates, on synthetic rows -------------------------


def _bench_payload():
    """Every row the suite enumerates, shaped to pass every gate."""
    rows = {"advisor": {"ok": True, "advisor": {
        "picks": [["k"], ["a", "b"]], "initial_cost": 10.0,
        "final_cost": 4.0, "storage_used": 100}}}
    for k in bench.KS:
        rows[f"multibuild/k{k}"] = {
            "ok": True, "build_time": 500.0 + 20.0 * (k - 1),
            "counters": {"build.pages_scanned": 40}}
        rows[f"sequential/k{k}"] = {
            "ok": True, "build_time": 500.0 * k,
            "counters": {"build.pages_scanned": 40 * k}}
    return {"schema_version": 1, "suites": {"multibuild": rows}}


@pytest.mark.parametrize("row,path,value,problem", [
    ("multibuild/k1", ("counters", "build.pages_scanned"), 41,
     "multibuild/multibuild/k1: scanned 41 pages, sequential 40"),
    ("multibuild/k2", ("build_time",), 1000.0,
     "multibuild/multibuild/k2: build_time 1000.0 not below sequential "
     "1000.0"),
    ("multibuild/k3", ("counters", "build.pages_scanned"), 120,
     "multibuild/multibuild/k3: scanned 120 pages, sequential 120"),
    ("advisor", ("advisor", "picks"), [],
     "multibuild/advisor: no picks recorded"),
    ("advisor", ("advisor", "final_cost"), 10.0,
     "multibuild/advisor: estimated cost did not improve"),
    ("advisor", ("advisor", "storage_used"), 401,
     "multibuild/advisor: storage 401 exceeds budget 400"),
], ids=["k1-pages", "k2-time", "k3-pages", "advisor-picks", "advisor-cost",
        "advisor-budget"])
def test_bench_gates_trip_by_row_name(row, path, value, problem):
    payload = _bench_payload()
    assert sorted(payload["suites"]["multibuild"]) \
        == sorted(bench.SUITE.rows)
    assert check(payload, [bench.SUITE]) == []
    target = payload["suites"]["multibuild"][row]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    problems = check(payload, [bench.SUITE])
    assert len(problems) == 1 and problems[0].startswith(problem), problems
