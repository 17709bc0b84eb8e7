"""Cancelling a side-file build mid-flight (section 2.3.2).

``cancel_build`` drops the descriptor under a short S quiesce while the
builder process runs on.  The builder must notice: it ends without
error, writes no checkpoint that names the dropped index, and leaves no
side-file, ``sort:`` / ``sealed:`` run store or registry entry of it; the
other indexes of a ``multi`` build still flip AVAILABLE and audit clean.
A crash after the cancel, before the builder's next checkpoint, must
resume nothing of the dropped index.
"""

import pytest

from repro import (
    BuildOptions,
    IndexSpec,
    System,
    SystemConfig,
    WorkloadDriver,
    WorkloadSpec,
    audit_index,
    build_pre_undo,
    cancel_build,
    restart,
)
from repro.core import IndexState, get_builder, resume_builds
from repro.sim import Delay

#: mode, partitions, indexes (columns k, p), the one cancelled
CASES = [
    ("sf", None, ["idx"], "idx"),
    ("psf", 2, ["idx"], "idx"),
    ("multi", None, ["a", "b"], "a"),
]


def _cancelled_build(mode, partitions, names, cancel):
    """A 3 000-row build, ``cancel`` cancelled 40 units after the
    builder spawns; returns ``(system, builder process, cancelled)``
    with the simulator stopped right after the cancel commits."""
    system = System(SystemConfig(page_capacity=8), seed=1)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(system, table, WorkloadSpec(operations=0),
                            seed=1)
    preload = system.spawn(driver.preload(3_000), name="preload")
    system.run()
    assert preload.error is None
    specs = [IndexSpec(name, (column,))
             for name, column in zip(names, ("k", "p"))]
    builder = get_builder(mode)(
        system, table, specs,
        options=BuildOptions(checkpoint_every_keys=32,
                             checkpoint_every_pages=4,
                             partitions=partitions))
    cancelled = []

    def scenario():
        proc = system.spawn(builder.run(), name="builder")
        yield Delay(40)
        yield from cancel_build(system, system.indexes[cancel])
        cancelled.append(proc)

    system.spawn(scenario(), name="canceller")
    while not cancelled:
        system.run(until=system.now() + 0.25)
    return system, cancelled[0]


def _nothing_left_of(system, name, registry=True):
    assert name not in system.indexes
    assert name not in system.sidefiles
    assert f"sort:{name}" not in system.run_stores
    assert f"sealed:{name}" not in system.run_stores
    assert name not in system.sealed_runs
    if registry:
        for state in system.utility_states.values():
            assert name not in state["indexes"]


@pytest.mark.parametrize("mode,partitions,names,cancel", CASES)
def test_a_cancelled_build_leaves_nothing_of_the_index(
        mode, partitions, names, cancel):
    system, proc = _cancelled_build(mode, partitions, names, cancel)
    system.run()
    assert proc.error is None
    _nothing_left_of(system, cancel)
    assert not system.utility_states  # the build is over
    survivors = [name for name in names if name != cancel]
    assert sorted(system.indexes) == survivors
    for name in survivors:
        assert system.indexes[name].state is IndexState.AVAILABLE
        audit_index(system, system.indexes[name])


@pytest.mark.parametrize("mode,partitions,names,cancel", CASES)
def test_a_crash_after_a_cancel_resumes_nothing_of_it(
        mode, partitions, names, cancel):
    system, _proc = _cancelled_build(mode, partitions, names, cancel)
    # the last checkpoint predates the cancel: it still names the index
    registry = system.log.latest_checkpoint().info["utility_states"]
    assert cancel in registry["t"]["indexes"]
    system.crash()
    recovered, _state = restart(system, pre_undo=build_pre_undo)
    # a registry entry naming only dropped indexes is gone; a multi
    # build's entry still names it until the resumed build checkpoints
    _nothing_left_of(recovered, cancel, registry=len(names) == 1)
    resumed = resume_builds(recovered)
    survivors = [name for name in names if name != cancel]
    assert [spec.name for builder in resumed
            for spec in builder.specs] == survivors
    for builder in resumed:
        proc = recovered.spawn(builder.run(), name="resumed")
        recovered.run()
        assert proc.error is None
    _nothing_left_of(recovered, cancel)
    assert not recovered.utility_states
    for name in survivors:
        assert recovered.indexes[name].state is IndexState.AVAILABLE
        audit_index(recovered, recovered.indexes[name])
