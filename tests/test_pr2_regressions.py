"""Regression tests for three latent correctness bugs.

1. NSF resume merged sort runs in *lexicographic* name order, so a
   build with ten or more runs resumed with ``run-10`` before ``run-2``
   and fed the final merge a different stream order than the original.
2. ``SideFile.force`` advanced ``durable_length`` before flushing the
   log, so a crash inside the flush produced "durable" entries whose
   redo-only append records never reached stable storage.
3. NSF's checkpoint path committed the IB transaction but never
   advanced ``descriptor.read_watermark``, stalling footnote-3 gradual
   availability whenever checkpoints fired instead of plain commits.
4. IB's rollback physically removed entries its ``insert_many`` had
   added -- including entries a concurrent committed deleter had since
   pseudo-deleted.  Destroying that tombstone let the resumed build
   re-insert a key whose record was gone (spurious key in the audit).
"""

import random

import pytest

from repro.core import (
    BuildOptions,
    IndexSpec,
    NSFIndexBuilder,
    build_pre_undo,
    resume_build,
)
from repro.faultinject import FaultInjector, FaultPlan, InjectedCrash
from repro.sweep import Scenario, run_plan
from repro.query import index_range_scan, set_gradual_availability
from repro.recovery import restart
from repro.sidefile import SideFile, register_sidefile_operations
from repro.sim import Delay
from repro.sort import run_sequence
from repro.storage.rid import RID
from repro.system import System, SystemConfig
from repro.verify import audit_index


def _preload(system, table, rows, seed):
    """Insert ``rows`` keys in shuffled order (sorted input would give
    replacement selection a single run)."""
    keys = list(range(rows))
    random.Random(seed).shuffle(keys)

    def body():
        txn = system.txns.begin()
        for key in keys:
            yield from table.insert(txn, (key, "x"))
        yield from txn.commit()

    proc = system.spawn(body(), name="preload")
    system.run()
    assert proc.error is None


# -- bug 1: resume run ordering ----------------------------------------------


def test_nsf_resume_merges_runs_in_creation_order():
    """A resumed NSF build with >= 10 runs must hand the final merge its
    runs in creation (numeric) order, not lexicographic name order."""
    # Tiny workspace -> ~2*4 keys per run -> ~30 runs from 240 rows;
    # fan-in large enough that the final merge consumes the original
    # runs directly (no eager pre-passes renumbering them).
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=4, merge_fanin=64),
                    seed=3)
    table = system.create_table("t", ["k", "p"])
    _preload(system, table, 240, seed=3)

    # Crash at the first IB insert batch: the latest durable utility
    # checkpoint is then the "insert-start" transition, whose resume
    # path rebuilds the final merge from the forced, closed runs.
    injector = FaultInjector(FaultPlan("nsf.insert_batch", 1))
    injector.install(system)
    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_keys=10_000,
                             commit_every_keys=10_000))
    system.spawn(builder.run(), name="builder")
    system.run()
    assert system.sim.crashed

    recovered, state = restart(system, pre_undo=build_pre_undo)
    assert state.get("phase") == "insert-start"  # the buggy resume path
    resumed = resume_build(recovered, state)
    assert resumed is not None

    captured = []
    original = resumed._final_merger

    def spy(descriptor, runs):
        captured.append([run.name for run in runs])
        return original(descriptor, runs)

    resumed._final_merger = spy
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    if proc.error is not None:
        raise proc.error
    audit_index(recovered, recovered.indexes["idx"])

    assert captured, "resume never rebuilt a final merger"
    names = captured[0]
    assert len(names) >= 10, f"only {len(names)} runs; need 10+ to " \
        "expose lexicographic misordering (run-10 < run-2)"
    sequences = [run_sequence(name) for name in names]
    assert sequences == sorted(sequences)
    # The premise that makes the assertion meaningful: with 10+ runs a
    # lexicographic sort WOULD misorder these names.
    assert sorted(names) != names


# -- bug 2: side-file force WAL ordering -----------------------------------


def test_sidefile_force_flushes_log_before_advancing_durable_length():
    """A crash inside force()'s log flush must not leave "durable"
    side-file entries whose append records never made the stable log."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    register_sidefile_operations(system)
    sidefile = SideFile(system, "idx")
    system.sidefiles["idx"] = sidefile
    txn = system.txns.begin("writer")
    for i in range(3):
        sidefile.append_sync(txn, "insert", (i,), RID(0, i))
    assert system.log.flushed_lsn < sidefile.entries[-1].lsn

    injector = FaultInjector(FaultPlan("wal.force.before", 1))
    injector.install(system)
    with pytest.raises(InjectedCrash):
        sidefile.force()
    injector.uninstall()

    system.crash()
    # WAL rule: every entry that survived the crash must be re-creatable
    # from the stable log prefix.
    flushed = system.log.flushed_lsn
    assert all(entry.lsn <= flushed for entry in sidefile.entries)
    assert sidefile.durable_length == len(sidefile.entries)


def test_sidefile_force_crash_recovers_clean_in_sweep():
    """End to end: crash at the sidefile.force site during an SF build,
    recover, resume, audit."""
    config = Scenario(builder="sf", records=150, operations=60,
                      max_hits_per_site=1)
    result = run_plan(config, FaultPlan("sidefile.force", 1))
    assert result.fired, result.detail
    assert result.passed, result.detail


# -- bug 4: IB rollback must not destroy a deleter's tombstone ---------------


def test_ib_rollback_preserves_concurrent_delete_tombstone():
    """Crash NSF mid-insert so IB's in-flight batch is a loser, where a
    concurrent committed transaction deleted one of the batch's records
    (heap delete + index pseudo-delete) before the crash.  IB's undo
    used to physically remove the whole batch -- tombstone included --
    so the resumed build re-inserted the deleted key and the audit saw
    a spurious entry.  Found by the crash-anywhere property sweep
    (nsf, seed=0, crash 28 ticks into the build)."""
    from repro.recovery import run_until_crash
    from repro.workloads import WorkloadDriver, WorkloadSpec

    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16, merge_fanin=4),
                    seed=0)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=25, workers=2, think_time=1.0,
                        rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=0)
    pre = system.spawn(driver.preload(200), name="preload")
    system.run()
    assert pre.error is None

    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_pages=8,
                             checkpoint_every_keys=48,
                             commit_every_keys=24))
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    run_until_crash(system, system.now() + 28.0)

    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert resumed is not None
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    if proc.error is not None:
        raise proc.error
    audit_index(recovered, recovered.indexes["idx"])


# -- bug 3: checkpoint path must advance the read watermark ------------------


def test_nsf_checkpoint_advances_read_watermark():
    """With plain commits disabled, the checkpoint path alone must keep
    footnote-3 gradual availability moving."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table("t", ["k", "p"])

    def pop():
        txn = system.txns.begin()
        for i in range(400):
            yield from table.insert(txn, (i, "x"))
        yield from txn.commit()

    pre = system.spawn(pop(), name="pop")
    system.run()
    assert pre.error is None

    builder = NSFIndexBuilder(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(commit_every_keys=0,
                             checkpoint_every_keys=32))
    proc = system.spawn(builder.run(), name="builder")
    outcome = {}

    def reader():
        descriptor = None
        while descriptor is None:
            yield Delay(1)
            descriptor = system.indexes.get("idx")
        set_gradual_availability(descriptor)
        while getattr(descriptor, "read_watermark", None) is None:
            # Pre-fix, checkpoints committed the frontier without ever
            # publishing it, so the watermark stayed None until the
            # build finished -- tripping this assert.
            assert not proc.finished, \
                "build finished before a watermark was ever published"
            yield Delay(5)
        outcome["mid_build"] = not proc.finished
        watermark = descriptor.read_watermark[0]
        txn = system.txns.begin()
        rows = yield from index_range_scan(
            txn, descriptor, (0,), (min(watermark[0], 10),),
            serializable=False)
        outcome["low_rows"] = len(rows)
        yield from txn.commit()

    system.spawn(reader(), name="reader")
    system.run()
    assert proc.error is None
    assert outcome.get("mid_build") is True
    assert outcome.get("low_rows", 0) > 0
