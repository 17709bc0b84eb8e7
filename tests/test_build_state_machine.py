"""The build state machine as a table (DESIGN.md section 5).

One row per (mode, checkpoint phase) a builder writes: the utility
checkpoint payload -- the phase, the key source's own fields and the
one per-index manifest -- and the :class:`BuildContext` that
``build_pre_undo`` must install from it: Current-RID, the Index_Build
flag, the per-shard frontier and the descriptor set.  The expected
contexts are literals taken from the five per-mode ``*_pre_undo``
functions this table replaced.  A second set of tests crashes real
builds, so the rows are the phases the builders really checkpoint and
``resume_build`` brings back the right class with the mode's own state.
"""

import functools
import random

import pytest

from repro.core import (
    BuildOptions,
    IndexDescriptor,
    IndexSpec,
    IndexState,
    NSFIndexBuilder,
    RESUMABLE_MODES,
    SFIndexBuilder,
    build_pre_undo,
    get_builder,
    resume_build,
)
from repro.faultinject.injector import CRASH, FaultInjector, FaultPlan
from repro.recovery import restart, run_until_crash
from repro.sort import run_sequence
from repro.storage.rid import INFINITY_RID, RID
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.wal.records import RecordKind
from repro.workloads import WorkloadDriver, WorkloadSpec

INF = INFINITY_RID
#: three shards over 15 pages; the *live* frontier at manifest write time
FRONTIER = {"partitions": [(0, 5), (5, 10), (10, 15)],
            "current": [RID(5, 0), RID(8, 0), RID(12, 0)]}
SEALED_FRONTIER = {"partitions": FRONTIER["partitions"],
                   "current": [INF, INF, INF]}


def _shard(done, ckpt_page, next_page):
    return {"done": done, "ckpt_page": ckpt_page, "next_page": next_page,
            "sort": {}, "runs": {}}


def _manifest(a="pending", b="pending", **fields):
    """The per-index manifest every payload carries: the status of ``a``
    and ``b``, ``fields`` (merge / highest_key / position / floor) on
    whichever of the two is under way."""
    entries = {"a": {"status": a}, "b": {"status": b}}
    for name, entry in entries.items():
        if entry["status"] in ("loading", "draining"):
            entry.update(fields)
    return entries


LOADING = dict(merge={}, highest_key=None, position=0)
SHARDED = {"options": {"partitions": 3}}
#: a rebuild's drain floors ride in the manifest from the reset on
FLOORS = {"a": {"status": "pending", "floor": 2},
          "b": {"status": "pending", "floor": 0}}

#: (mode, phase, payload beyond the common keys, expected Current-RID,
#:  expected per-shard frontier or None, expected descriptor names)
ROWS = [
    # NSF: visible from descriptor creation, no Current-RID at all
    ("nsf", "scan", {"next_page": 8, "sort": {}, "current_rid": RID(0, 0),
                     "manifest": _manifest()},
     RID(0, 0), None, ["a", "b"]),
    ("nsf", "insert-start", {"manifest": _manifest("done"),
                             "current_rid": RID(0, 0)},
     RID(0, 0), None, ["a", "b"]),
    ("nsf", "insert", {"manifest": _manifest("done", "loading", merge={},
                                             highest_key=None),
                       "current_rid": RID(0, 0)},
     RID(0, 0), None, ["a", "b"]),
    # SF: the checkpointed Current-RID while scanning, infinity after
    ("sf", "scan", {"next_page": 8, "sort": {}, "current_rid": RID(8, 0),
                    "manifest": _manifest()},
     RID(8, 0), None, ["a", "b"]),
    ("sf", "load-start", {"manifest": _manifest(), "current_rid": INF},
     INFINITY_RID, None, ["a", "b"]),
    ("sf", "load", {"manifest": _manifest("loading", **LOADING),
                    "current_rid": INF},
     INFINITY_RID, None, ["a", "b"]),
    ("sf", "drain", {"manifest": _manifest("draining", "draining",
                                           position=3),
                     "current_rid": INF},
     INFINITY_RID, None, ["a", "b"]),
    # the shard scan: each unfinished shard restarts from ITS
    # checkpointed page, not from the live frontier the manifest
    # happened to record
    ("psf", "pscan", {**SHARDED, "frontier": FRONTIER,
                      "current_rid": RID(0, 0), "manifest": _manifest(),
                      "shards": {0: _shard(True, 5, 5),
                                 1: _shard(False, 6, 8),
                                 2: _shard(False, 10, 12)}},
     RID(0, 0), [INFINITY_RID, RID(6, 0), RID(10, 0)], ["a", "b"]),
    ("psf", "pscan", {**SHARDED, "frontier": SEALED_FRONTIER,
                      "current_rid": RID(0, 0), "manifest": _manifest(),
                      "shards": {0: _shard(True, 5, 5),
                                 1: _shard(True, 10, 10),
                                 2: _shard(True, 15, 15)}},
     INFINITY_RID, [INFINITY_RID] * 3, ["a", "b"]),
    ("psf", "load-start", {**SHARDED, "manifest": _manifest(),
                           "frontier": SEALED_FRONTIER,
                           "current_rid": INF},
     INFINITY_RID, [INFINITY_RID] * 3, ["a", "b"]),
    ("psf", "load", {**SHARDED,
                     "manifest": _manifest("loading", **LOADING),
                     "frontier": SEALED_FRONTIER, "current_rid": INF},
     INFINITY_RID, [INFINITY_RID] * 3, ["a", "b"]),
    ("psf", "drain", {**SHARDED,
                      "manifest": _manifest("draining", "draining",
                                            position=0),
                      "frontier": SEALED_FRONTIER, "current_rid": INF},
     INFINITY_RID, [INFINITY_RID] * 3, ["a", "b"]),
    # multi: the same manifest visited index by index; flipped ("done")
    # indexes stay in the descriptor set
    ("multi", "scan", {"next_page": 8, "sort": {}, "manifest": _manifest(),
                       "current_rid": RID(8, 0)},
     RID(8, 0), None, ["a", "b"]),
    ("multi", "load-start", {"manifest": _manifest("done"),
                             "current_rid": INF},
     INFINITY_RID, None, ["a", "b"]),
    ("multi", "drain", {"manifest": _manifest("done", "draining",
                                              position=4),
                        "current_rid": INF},
     INFINITY_RID, None, ["a", "b"]),
    # rebuild: never scans; only BUILDING descriptors are under
    # construction ("reset" is checkpointed before the flip, and before
    # the context exists, so it carries no current_rid / index_build)
    ("rebuild", "reset", {"manifest": FLOORS},
     INFINITY_RID, None, ["b"]),
    ("rebuild", "load-start", {"manifest": FLOORS, "current_rid": INF},
     INFINITY_RID, None, ["b"]),
    ("rebuild", "load", {"manifest": {
        "a": FLOORS["a"], "b": {"status": "loading", "floor": 0,
                                **LOADING}}, "current_rid": INF},
     INFINITY_RID, None, ["b"]),
    ("rebuild", "drain", {"manifest": {
        "a": {"status": "draining", "position": 2, "floor": 2},
        "b": {"status": "draining", "position": 0, "floor": 0}},
        "current_rid": INF},
     INFINITY_RID, None, ["b"]),
    # compositions: multi's order over the shard scan's frontier
    ("multi", "load", {"manifest": _manifest("done", "loading", **LOADING),
                       "current_rid": INF},
     INFINITY_RID, None, ["a", "b"]),
    ("multi", "pscan", {**SHARDED, "frontier": FRONTIER,
                        "current_rid": RID(0, 0), "manifest": _manifest(),
                        "shards": {0: _shard(True, 5, 5),
                                   1: _shard(False, 6, 8),
                                   2: _shard(False, 10, 12)}},
     RID(0, 0), [INFINITY_RID, RID(6, 0), RID(10, 0)], ["a", "b"]),
    ("multi", "drain", {**SHARDED, "frontier": SEALED_FRONTIER,
                        "manifest": _manifest("done", "draining",
                                              position=4),
                        "current_rid": INF},
     INFINITY_RID, [INFINITY_RID] * 3, ["a", "b"]),
]

#: the phases every builder is seen to checkpoint in a real build
#: (below); a sharded scan writes "pscan" where the serial one writes
#: "scan"
SF_PHASES = {"scan", "load-start", "load", "drain", "done"}
PHASES_WRITTEN = {
    "nsf": {"scan", "insert-start", "insert", "done"},
    "sf": SF_PHASES,
    "psf": SF_PHASES,
    "multi": SF_PHASES,
    "rebuild": SF_PHASES - {"scan"} | {"reset"},
}


def _catalog(table_name="t", prefix=""):
    """A system with one table and two attached descriptors: ``a``
    already AVAILABLE (a flipped multi index, a live index a rebuild has
    not reset yet), ``b`` BUILDING."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table(table_name, ["k", "p"])
    for name, state in (("a", IndexState.AVAILABLE),
                        ("b", IndexState.BUILDING)):
        descriptor = IndexDescriptor(system, table, prefix + name, ("k",))
        descriptor.state = state
        descriptor.attach()
    return system


def _payload(mode, phase, extra, table="t", names=("a", "b")):
    payload = {"builder": mode, "table": table, "indexes": list(names),
               "specs": [(name, ["k"], False) for name in names],
               "phase": phase}
    if "current_rid" in extra:
        payload["index_build"] = True
    payload.update(extra)
    return payload


def _pre_undo(system, state):
    """Run the hook as restart does: ``state`` was written by the one
    checkpoint writer, so the registry holds it unless it is done."""
    system.checkpoint(state)
    build_pre_undo(system, state)


def test_the_table_has_a_row_for_every_mode_and_phase():
    assert {mode for mode, *_ in ROWS} == set(RESUMABLE_MODES) \
        == set(PHASES_WRITTEN)
    for mode in RESUMABLE_MODES:
        assert get_builder(mode).mode == mode
        assert {"scan" if phase == "pscan" else phase
                for row_mode, phase, *_ in ROWS if row_mode == mode} \
            == PHASES_WRITTEN[mode] - {"done"}
    assert {mode for mode, phase, *_ in ROWS if phase == "pscan"} \
        == {"psf", "multi"}


@pytest.mark.parametrize(
    "mode,phase,extra,current_rid,frontier,descriptors", ROWS,
    ids=[f"{row[0]}-{row[1]}-{i}" for i, row in enumerate(ROWS)])
def test_pre_undo_installs_the_context_of_the_row(
        mode, phase, extra, current_rid, frontier, descriptors):
    system = _catalog()
    state = _payload(mode, phase, extra)
    _pre_undo(system, state)
    context = system.builds["t"]
    assert context.mode == mode
    assert context.current_rid == current_rid
    assert context.index_build is True
    assert [d.name for d in context.descriptors] == descriptors
    if frontier is None:
        assert context.frontier is None
    else:
        assert context.frontier.current == frontier
        assert [(p.start, p.end) for p in context.frontier.partitions] \
            == FRONTIER["partitions"]

    builder = resume_build(system, state)
    assert type(builder) is get_builder(mode)
    assert builder.context is context
    assert [d.name for d in builder.descriptors] == ["a", "b"]
    assert builder.options == BuildOptions(**extra.get("options", {}))
    assert builder._manifest == extra["manifest"]
    if mode != "nsf":
        assert builder.partitions == (3 if frontier else None)


@pytest.mark.parametrize("mode", RESUMABLE_MODES)
def test_done_installs_nothing(mode):
    system = _catalog()
    state = _payload(mode, "done", {})
    _pre_undo(system, state)
    assert system.builds == {}
    assert resume_build(system, state) is None


def test_the_index_build_flag_comes_from_the_checkpoint():
    system = _catalog()
    _pre_undo(system, _payload(
        "sf", "drain", {"index": "a", "position": 0, "current_rid": INF,
                        "index_build": False}))
    assert system.builds["t"].index_build is False


def test_an_index_dropped_from_the_catalog_leaves_the_context():
    system = _catalog()
    system.indexes["a"].detach()
    _pre_undo(system, _payload("sf", "scan", {"current_rid": RID(2, 0)}))
    assert [d.name for d in system.builds["t"].descriptors] == ["b"]


def test_two_tables_building_both_get_their_context_back():
    """Every build in ``system.utility_states`` (the registry restart
    reloads) gets its context, not only the payload handed to the
    hook."""
    system = _catalog("t1", prefix="t1.")
    table2 = system.create_table("t2", ["k", "p"])
    descriptor = IndexDescriptor(system, table2, "t2.b", ("k",))
    descriptor.attach()
    system.utility_states = {
        "t1": _payload("sf", "scan", {"current_rid": RID(4, 0)}, table="t1",
                       names=("t1.a", "t1.b")),
        "t2": _payload("nsf", "insert-start", {"done_indexes": []},
                       table="t2", names=("t2.b",)),
    }
    build_pre_undo(system, system.utility_states["t2"])
    assert set(system.builds) == {"t1", "t2"}
    assert system.builds["t1"].mode == "sf"
    assert system.builds["t1"].current_rid == RID(4, 0)
    assert [d.name for d in system.builds["t1"].descriptors] \
        == ["t1.a", "t1.b"]
    assert system.builds["t2"].mode == "nsf"
    assert [d.name for d in system.builds["t2"].descriptors] == ["t2.b"]


# -- real builds: the phases written, and crash -> resume per mode ------------

CONFIG = dict(page_capacity=8, leaf_capacity=8, sort_workspace=16,
              merge_fanin=4, buffer_frames=256)
OPTIONS = dict(checkpoint_every_pages=8, checkpoint_every_keys=16,
               commit_every_keys=16)
SPECS = [IndexSpec.of("a", ["k"]), IndexSpec.of("b", ["p"])]


def _drive(system, body, name):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error


def _staged(seed=11):
    system = System(SystemConfig(**CONFIG), seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table, WorkloadSpec(operations=60, workers=2,
                                    think_time=0.5, rollback_fraction=0.2),
        seed=seed)
    _drive(system, driver.preload(300), "preload")
    return system, table, driver


def _builder(mode, system, table, partitions=None):
    """The builder of ``mode`` ready to run (a rebuild first needs a
    completed SF build whose sealed runs it reuses)."""
    options = BuildOptions(partitions=partitions, **OPTIONS)
    if mode == "rebuild":
        seed_build = SFIndexBuilder(system, table, SPECS[0])
        _drive(system, seed_build.run(), "seed-builder")
        return system.rebuild_index("a", options=options)
    return get_builder(mode)(system, table,
                             SPECS if mode == "multi" else SPECS[0],
                             options=options)


#: every mode (psf at three shards), and multi's order over three shards
BUILDS = [pytest.param(mode, 3 if mode == "psf" else None, id=mode)
          for mode in RESUMABLE_MODES] \
    + [pytest.param("multi", 3, id="multi-p3")]


@pytest.mark.parametrize("mode,partitions", BUILDS)
def test_phases_each_builder_checkpoints(mode, partitions):
    system, table, driver = _staged()
    builder = _builder(mode, system, table, partitions)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    phases = {record.info["utility_state"]["phase"]
              for record in system.log.scan()
              if record.kind is RecordKind.CHECKPOINT
              and record.info["utility_state"].get("builder") == mode}
    expected = PHASES_WRITTEN[mode]
    if partitions:
        expected = expected - {"scan"} | {"pscan"}
    assert phases == expected


@pytest.mark.parametrize("mode,site,hit,phase", [
    ("nsf", "nsf.insert_checkpoint", 2, "insert"),
    ("sf", "sf.drain_checkpoint", 1, "drain"),
    ("psf", "psf.worker_done", 2, "pscan"),
    ("psf", "psf.merge_done", 1, "load-start"),
    ("multi", "multibuild.index_done", 1, "load-start"),
    ("rebuild", "sf.load_done", 1, "load"),
])
def test_crash_then_resume_brings_back_the_mode(mode, site, hit, phase):
    system, table, driver = _staged()
    builder = _builder(mode, system, table, 3 if mode == "psf" else None)
    FaultInjector(FaultPlan(site, hit, CRASH)).install(system)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert system.sim.crashed

    recovered, state = restart(system, pre_undo=build_pre_undo)
    assert (state["builder"], state["phase"]) == (mode, phase)
    context = recovered.builds["t"]
    assert context.mode == mode
    resumed = resume_build(recovered, state)
    assert type(resumed) is get_builder(mode)
    assert resumed.context is context
    assert resumed.options == builder.options
    if mode == "psf":
        assert resumed.partitions == 3
        done = [raw["done"] for _shard_no, raw
                in sorted(state.get("shards", {}).items())]
        if phase == "pscan":
            # one shard sealed, two still scanning: a mixed manifest
            assert sorted(done) == [False, False, True]
            assert [rid == INFINITY_RID
                    for rid in context.frontier.current] == done
        else:
            assert context.frontier.done
    if mode == "rebuild":
        # the drain floor recorded at reset survives every transition
        assert resumed._manifest["a"]["floor"] \
            == builder._manifest["a"]["floor"]
    _drive(recovered, resumed.run(), "resumed")
    for name in state["indexes"]:
        assert recovered.indexes[name].state is IndexState.AVAILABLE
        audit_index(recovered, recovered.indexes[name])


# -- a second crash in the resumed build resumes it again ---------------------


@functools.lru_cache(maxsize=None)
def _build_time(mode):
    """Simulated time one uncrashed build of ``mode`` takes."""
    system, table, driver = _staged()
    builder = _builder(mode, system, table)
    start = system.now()
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    return builder.timings["done"] - start


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("mode", RESUMABLE_MODES)
def test_a_second_crash_resumes_the_build(mode, fraction):
    """Crash ``fraction`` into the build, restart and resume, crash one
    time unit into the resumed build: restart's own checkpoint still
    records the build, so it resumes a second time and ends right."""
    system, table, driver = _staged()
    builder = _builder(mode, system, table)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    run_until_crash(system, system.now() + fraction * _build_time(mode))

    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert resumed is not None, state.get("phase")
    recovered.spawn(resumed.run(), name="resumed")
    run_until_crash(recovered, recovered.now() + 1)

    again, state = restart(recovered, pre_undo=build_pre_undo)
    assert again.metrics.get("recovery.orphan_builds_discarded") == 0
    assert set(again.utility_states) == {"t"}
    resumed = resume_build(again, state)
    assert resumed is not None
    _drive(again, resumed.run(), "resumed-again")
    for name in state["indexes"]:
        assert again.indexes[name].state is IndexState.AVAILABLE
        audit_index(again, again.indexes[name])
    assert again.utility_states == {}


# -- resume merges the surviving runs in creation order -----------------------
# (NSF resume merged sort runs in *lexicographic* name order, so a build
# with ten or more runs resumed with ``run-10`` before ``run-2`` and fed the
# final merge a different stream order than the original)


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
