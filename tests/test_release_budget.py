"""What a run lets go of once it is done with it.

A table that is "very large" needs a resident footprint that follows
live data, not everything the run has touched.  Three things are
released, in the style of ``test_build_path_budget.py``:

* a finished process leaves the kernel's process table and drops its
  generator and its joiners;
* a done build drops its ``sort:`` runs (nothing resumes a done build),
  from the system's stores and from its own sorters, so a builder kept
  after its run reaches none; the ``sealed:`` run a rebuild reads stays;
* ``audit_index`` counts and probes instead of holding a table-sized
  set, so its traced peak per index entry is bounded.
"""

import gc
import tracemalloc
import types

import pytest

from repro.core import IndexSpec, get_builder
from repro.sort import SortRun
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads.openloop import OpenLoopDriver, OpenLoopSpec

AUDIT_ROWS = 2_000


def built_under_traffic(mode):
    """A ``mode`` build of one index under open-loop traffic (a process
    per operation); returns the system, the builder's process and every
    process spawned after the preload."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    table = system.create_table("t", ["k", "p"])
    driver = OpenLoopDriver(system, table,
                            OpenLoopSpec(operations=60, rate=0.5,
                                         key_space=1_000), seed=3)
    system.spawn(driver.preload(300), name="preload")
    system.run()
    spawned = []
    spawn = system.sim.spawn

    def recording_spawn(body, name="proc"):
        proc = spawn(body, name=name)
        spawned.append(proc)
        return proc

    system.sim.spawn = recording_spawn
    builder = get_builder(mode)(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn()
    system.run()
    assert proc.error is None
    return system, proc, spawned


@pytest.mark.parametrize("mode", ["nsf", "sf"])
def test_the_kernel_holds_no_finished_process(mode):
    system, proc, spawned = built_under_traffic(mode)
    sim = system.sim
    assert len(spawned) > 60 and proc in spawned
    assert all(p.finished for p in spawned)
    assert sim.processes() == [] and sim.live_processes == 0
    for p in spawned:
        assert p.body is None and p._waiters is None, p.name
    audit_index(system, system.indexes["idx"])


@pytest.mark.parametrize("mode", ["nsf", "sf"])
def test_a_done_build_keeps_no_sort_runs(mode):
    system, _proc, _spawned = built_under_traffic(mode)
    stores = set(system.run_stores)
    assert not {name for name in stores if name.startswith("sort:")}
    if mode == "sf":
        # the rebuild input survives the release
        assert "sealed:idx" in stores
        assert system.run_stores["sealed:idx"].total_keys() > 0


def reachable_runs(root) -> list:
    """Every :class:`SortRun` reachable from ``root`` through object
    references (code and classes are not followed: what a module or a
    function's globals hold is not the object's)."""
    seen = {id(root)}
    todo = [root]
    runs = []
    while todo:
        obj = todo.pop()
        if type(obj) is SortRun:
            runs.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                todo.append(ref)
    return runs


@pytest.mark.parametrize("mode", ["sf", "nsf", "psf", "multi"])
def test_a_done_builder_reaches_only_the_sealed_run(mode):
    """A builder kept after its run -- the e2e bench's last round keeps
    one -- reaches no sort run: only a sealed run, the input of a
    rebuild, survives the build."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    table = system.create_table("t", ["k", "p"])
    driver = OpenLoopDriver(system, table,
                            OpenLoopSpec(operations=0, rate=0.5,
                                         key_space=1_000), seed=3)
    system.spawn(driver.preload(300), name="preload")
    system.run()
    builder = get_builder(mode)(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    system.run()
    assert proc.error is None
    gc.collect()
    runs = reachable_runs(builder)
    sealed = system.run_stores.get("sealed:idx")
    kept = list(sealed.runs.values()) if sealed is not None else []
    assert [run.name for run in runs
            if not any(run is mine for mine in kept)] == []
    if mode == "nsf":
        assert runs == []
    else:  # the rebuild input is still there, and reachable
        assert len(kept) == 1 and runs == kept and len(kept[0]) == 300


def test_rebuilds_still_find_their_sealed_run():
    """A done rebuild releases too, and the next one still reads the
    sealed run: no data page is scanned by either."""
    system, _proc, _spawned = built_under_traffic("sf")
    scanned = system.metrics.get("build.pages_scanned")
    for _ in range(2):
        proc = system.spawn(system.rebuild_index("idx").run(),
                            name="rebuild")
        system.run()
        assert proc.error is None
        assert "sealed:idx" in system.run_stores
        assert not [n for n in system.run_stores if n.startswith("sort:")]
    assert system.metrics.get("build.pages_scanned") == scanned
    audit_index(system, system.indexes["idx"])


def test_the_audit_holds_no_table_sized_set():
    system = System(SystemConfig(page_capacity=16, leaf_capacity=16,
                                 branch_capacity=16, sort_workspace=256,
                                 merge_fanin=8), seed=1)
    table = system.create_table("t", ["k", "a", "p"])

    def preload():
        txn = system.txns.begin("preload")
        for i in range(AUDIT_ROWS):
            yield from table.insert(txn, (i * 7919 % 100_003, i % 97,
                                          f"p{i:06d}"))
        yield from txn.commit()

    system.spawn(preload(), name="preload")
    system.run()
    builder = get_builder("sf")(system, table, IndexSpec.of("idx_k", ["k"]))
    system.spawn(builder.run(), name="ib")
    system.run()
    descriptor = system.indexes["idx_k"]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = audit_index(system, descriptor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["entries"] == AUDIT_ROWS
    # 241 bytes per entry while the audit held the table's
    # <key value, RID> set; what is left is the structural audit's list
    per_entry = (peak - base) / AUDIT_ROWS
    assert per_entry <= 120, f"{per_entry:.0f} traced bytes per entry"
