"""The paper's claims as one suite (suite ``paper`` of
``python -m repro.bench``).

The paper has no numeric tables.  EXPERIMENTS.md E1-E15 and E19 turn
its section 2-6 claims into twenty tables; here each table line is one
row, ``eN/<cell>`` (``e1/nsf/ops80``, ``e5/merge/ckpt250``,
``e7/sf/unique``), whose fields are named after the table's columns and
hold unrounded values -- EXPERIMENTS.md prints them at two decimals.
Every scenario keeps its seeds, sizes, options and configuration.

A check inside a scenario (an audit of the built index, a merge that
must equal the sorted input) raises in the row body, so the row fails.
Each claim the paper makes about a table is one self-gate in
:func:`gates`; where the claim was stated on the table's rounded cells,
the gate rounds the same way.
"""

from __future__ import annotations

import random
from functools import cache, partial
from typing import Callable, Optional

from repro.bench.harness import bench_config, run_build_experiment
from repro.bench.runner import Suite
from repro.btree.tree import BTree
from repro.core import (BuildOptions, IndexSpec, NSFIndexBuilder,
                        build_pre_undo, cleanup_pseudo_deleted,
                        get_builder, resume_build)
from repro.core.iot import IOTable, SFIotBuilder
from repro.metrics import ordered_sum
from repro.obs import TraceRecorder, phase_durations
from repro.obs.report import drain_verdicts
from repro.recovery import media_restore, restart, take_image_copy
from repro.sim import Delay
from repro.sort import (RestartableMerger, RunFormation, RunStore,
                        merge_to_single)
from repro.system import System, SystemConfig
from repro.verify import ConsistencyError, audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

#: E7's seeded adversarial schedules per cell
E7_SEEDS = range(100, 130)

#: E7's field -> the counter it totals over the schedules
E7_COUNTERS = {
    "ib_dup_rejects": "index.duplicate_rejections.ib",
    "txn_dup_rejects": "index.duplicate_rejections.txn",
    "tombstones": "index.tombstone_inserts",
    "sidefile_entries": "sidefile.appends",
    "figure2_compensations": "maintenance.figure2_compensations",
}


def _counters(result, **names: str) -> dict:
    """``{field: counter}`` of a :func:`run_build_experiment` result."""
    return {field: result.counter(name) for field, name in names.items()}


def _preloaded(seed: int, rows: int, spec: Optional[WorkloadSpec] = None):
    """A bench-config system with table ``t`` preloaded by a driver."""
    system = System(bench_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(system, table, spec or WorkloadSpec(), seed=seed)
    preload = system.spawn(driver.preload(rows), name="preload")
    system.run()
    if preload.error is not None:
        raise preload.error
    return system, table, driver


# -- E1-E4: log volume, clustering, availability, traversals ------------------


def _e1(algorithm: str, operations: int) -> dict:
    result = run_build_experiment(algorithm, rows=500, operations=operations,
                                  workers=2, seed=11)
    return _counters(result, ib_log_recs="wal.records.ib",
                     ib_log_bytes="wal.bytes.ib",
                     txn_log_recs="wal.records.txn",
                     bulk_inserts="index.inserts.bulk",
                     ib_tree_inserts="index.inserts.ib",
                     drained="build.sidefile_drained")


def _e2(algorithm: str, operations: int) -> dict:
    result = run_build_experiment(algorithm, rows=500, operations=operations,
                                  workers=3, seed=23, think_time=0.5)
    return {"clustering": result.clustering_at_build_end["idx"],
            **_counters(result, index_pages="index.pages_allocated",
                        splits="index.splits", keys_moved="index.keys_moved")}


def _availability(result) -> dict:
    return {"build_time": result.build_time,
            "quiesce_hold": result.quiesce_hold,
            "longest_stall": result.longest_stall(),
            "committed_ops": result.counter("workload.committed")}


def _e3(algorithm: str) -> dict:
    result = run_build_experiment(algorithm, rows=600, operations=80,
                                  workers=3, seed=31, think_time=0.5)
    return {"quiesce_wait": result.quiesce_wait, **_availability(result)}


def _e4_traversals(algorithm: str) -> dict:
    result = run_build_experiment(algorithm, rows=800, seed=41)
    return {**_counters(result, traversals="index.traversals",
                        path_reuses="index.ib_path_reuses"),
            "keys_placed": result.counter("index.inserts.ib")
            + result.counter("index.inserts.bulk"),
            "ib_log_recs": result.counter("wal.records.ib")}


def _e4_batch(batch: int) -> dict:
    result = run_build_experiment("nsf", rows=800, seed=42,
                                  options=BuildOptions(ib_batch_keys=batch))
    return {**_counters(result, traversals="index.traversals",
                        path_reuses="index.ib_path_reuses",
                        ib_log_recs="wal.records.ib"),
            "build_time": result.build_time}


# -- E5-E6: restartable sort and insert phase --------------------------------


def _redone(crash_after: int, redone: int) -> dict:
    return {"keys_before_crash": crash_after, "keys_redone": redone,
            "redone_pct": 100 * redone / crash_after}


def _e5_sort(checkpoint_every: int, crash_after: int = 4_000) -> dict:
    """Push 5 000 keys with periodic sort checkpoints, crash at
    ``crash_after``, resume; count the keys re-pushed."""
    rng = random.Random(5)
    keys = [rng.randrange(1_000_000) for _ in range(5_000)]
    store = RunStore()
    workspace = 64
    sorter = RunFormation(store, workspace)
    manifest = None
    for position, key in enumerate(keys[:crash_after]):
        sorter.push(key)
        if checkpoint_every and position and position % checkpoint_every == 0:
            manifest = sorter.checkpoint(scan_position=position + 1)
    store.crash()
    if manifest is None:
        resume_from = 0
        sorter = RunFormation(store, workspace)
    else:
        sorter, resume_from = RunFormation.restore(store, manifest,
                                                   workspace)
    for key in keys[resume_from:]:
        sorter.push(key)
    merged = merge_to_single(store, sorter.finish(), fanin=8)
    if merged.keys != sorted(keys):
        raise AssertionError("resumed sort lost or repeated a key")
    return _redone(crash_after, crash_after - resume_from)


def _e5_merge(checkpoint_every: int, crash_after: int = 3_500) -> dict:
    """Merge five sorted runs with periodic merge checkpoints, crash
    after ``crash_after`` outputs, resume; count the keys re-merged."""
    rng = random.Random(6)
    lists = [sorted(rng.randrange(1_000_000) for _ in range(1_000))
             for _ in range(5)]
    store = RunStore()
    runs = []
    for keys in lists:
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.force()
        run.closed = True
        runs.append(run)
    merger = RestartableMerger(runs, store.new_run())
    manifest = None
    produced = 0
    while produced < crash_after and merger.pop() is not None:
        produced += 1
        if checkpoint_every and produced % checkpoint_every == 0:
            manifest = merger.checkpoint()
    store.crash()
    if manifest is None:
        merger = RestartableMerger(runs, store.new_run())
        redone = produced
    else:
        merger = RestartableMerger.restore(store, manifest)
        redone = produced - manifest["output_length"]
    if merger.run_to_completion().keys \
            != sorted(k for keys in lists for k in keys):
        raise AssertionError("resumed merge lost or repeated a key")
    return _redone(crash_after, redone)


def _e6(checkpoint_every_keys) -> dict:
    """Crash NSF once half the keys are in, restart, resume; count the
    duplicate-rejected re-inserts."""
    rows = 600
    system, table, _ = _preloaded(61, rows)
    options = BuildOptions(commit_every_keys=32,
                           checkpoint_every_keys=checkpoint_every_keys)
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]),
                              options=options)
    system.spawn(builder.run(), name="builder")
    while True:
        system.run(until=system.now() + 25)
        if system.metrics.get("index.inserts.ib") >= rows // 2 \
                or system.sim.live_processes == 0:
            break
    system.crash()
    recovered, state = restart(system, pre_undo=build_pre_undo)
    before = recovered.metrics.snapshot()
    resumed = resume_build(recovered, state)
    if resumed is None:
        raise AssertionError("no build to resume after restart")
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    if proc.error is not None:
        raise proc.error
    delta = recovered.metrics.delta(before)
    audit_index(recovered, recovered.indexes["idx"])
    return {"resume_phase": state.get("phase"),
            "reinserts_rejected":
                delta.get("index.duplicate_rejections.ib", 0),
            "keys_inserted_after_resume": delta.get("index.inserts.ib", 0),
            "ib_log_recs_after_resume": delta.get("wal.records.ib", 0)}


# -- E7-E10: correctness, shared scan, split policy, pseudo-delete GC --------


def _e7(algorithm: str, unique: bool) -> dict:
    """30 seeded adversarial schedules, each audited key for key; the
    totals show the race machinery fired."""
    totals = dict.fromkeys(E7_COUNTERS, 0)
    audited = 0
    for seed in E7_SEEDS:
        result = run_build_experiment(
            algorithm, rows=120, operations=30, workers=3, seed=seed,
            unique=unique, rollback_fraction=0.2, think_time=0.5,
            key_space=10_000_000 if unique else 5_000,
            update_weight=0.0 if unique else 1.0)
        audited += 1
        for field, counter in E7_COUNTERS.items():
            totals[field] += result.counter(counter)
    return {"schedules_ok": audited, **totals}


@cache
def _e8_single_build() -> tuple[int, float]:
    """One single-index build (pages scanned, build time): every one of
    E8's separate builds is this same deterministic run."""
    single = run_build_experiment("sf", rows=600, seed=81)
    return single.counter("build.pages_scanned"), single.build_time


def _e8(k: int) -> dict:
    specs = [IndexSpec.of(f"idx{i}", ["k"]) for i in range(k)]
    shared = run_build_experiment("sf", rows=600, seed=81,
                                  index_specs=specs)
    pages, build_time = _e8_single_build()
    separate_time = ordered_sum([build_time] * k)
    return {"pages_scanned_shared": shared.counter("build.pages_scanned"),
            "pages_scanned_separate": pages * k,
            "time_shared": shared.build_time,
            "time_separate": separate_time,
            "speedup": separate_time / shared.build_time}


def _e9(specialized: bool, operations: int) -> dict:
    """NSF with or without the specialized IB split (the ablation forces
    every IB split down the normal half-split path)."""
    original = BTree._insert_sorted
    if not specialized:
        def normal_only(self, leaf, entry, path=None,
                        specialized_for_ib=False):
            return original(self, leaf, entry, path,
                            specialized_for_ib=False)

        BTree._insert_sorted = normal_only
    try:
        result = run_build_experiment(
            "nsf", rows=500, operations=operations, workers=3, seed=91,
            think_time=0.5, key_space=10_000)
    finally:
        BTree._insert_sorted = original
    return {"clustering": result.clustering_at_build_end["idx"],
            **_counters(result, keys_moved="index.keys_moved",
                        splits="index.splits",
                        index_pages="index.pages_allocated")}


def _e10(delete_weight: float) -> dict:
    result = run_build_experiment(
        "nsf", rows=400, operations=60, workers=3, seed=101, think_time=0.5,
        rollback_fraction=0.25, delete_weight=delete_weight,
        key_space=10_000, audit=False)
    system = result.system
    descriptor = system.indexes["idx"]
    tree = descriptor.tree
    row = {"live_keys": tree.key_count(),
           "tombstones_before": len(tree.pseudo_deleted),
           "index_pages": tree.page_count}
    gc = system.spawn(cleanup_pseudo_deleted(system, descriptor), name="gc")
    system.run()
    if gc.error is not None:
        raise gc.error
    audit_index(system, descriptor)
    return {**row, "gc_removed": gc.result,
            "tombstones_after": len(tree.pseudo_deleted),
            "commit_lsn_fast_path":
                system.metrics.get("gc.commit_lsn_fast_path")}


# -- E11-E15, E19: side-file, scan I/O, end to end, IOT, media, drain --------


def _e11_growth(operations: int) -> dict:
    result = run_build_experiment("sf", rows=600, operations=operations,
                                  workers=3, seed=111, think_time=0.5)
    return {**_counters(result, sidefile_entries="sidefile.appends",
                        drained="build.sidefile_drained",
                        appended_during_undo="sidefile.appends.during_undo"),
            "build_time": result.build_time}


def _e11_drain(sort_sidefile: bool) -> dict:
    result = run_build_experiment(
        "sf", rows=600, operations=120, workers=3, seed=112, think_time=0.5,
        options=BuildOptions(sort_sidefile=sort_sidefile))
    return {**_counters(result, drained="build.sidefile_drained",
                        drained_from_sorted_chunk=
                        "build.sidefile_drained_sorted",
                        tree_traversals="index.traversals"),
            "build_time": result.build_time}


def _e12_prefetch(prefetch: int) -> dict:
    # a small buffer pool forces the scan to really hit the disk
    result = run_build_experiment(
        "sf", rows=1_000, seed=121, config=bench_config(buffer_frames=24),
        options=BuildOptions(prefetch_pages=prefetch))
    return {**_counters(result, disk_reads="disk.reads",
                        pages_read="disk.pages_read"),
            "build_time": result.build_time}


def _e12_readers(readers: int, frames: int) -> dict:
    """[PMCLS90]: NSF's parallel readers overlap their I/Os."""
    result = run_build_experiment(
        "nsf", rows=1_000, seed=122, config=bench_config(buffer_frames=frames),
        options=BuildOptions(prefetch_pages=4, parallel_readers=readers))
    timings = result.builder.timings
    return {"scan_sort_time": timings.get("scan_done", 0.0)
            - timings.get("descriptor_done", 0.0),
            **_counters(result, disk_reads="disk.reads",
                        pages_read="disk.pages_read",
                        stale_prefetches="buffer.stale_prefetches"),
            "build_time": result.build_time}


def _e13(algorithm: str) -> dict:
    result = run_build_experiment(algorithm, rows=800, operations=60,
                                  workers=3, seed=131, think_time=0.5)
    return {**_availability(result),
            **_counters(result, ib_log_recs="wal.records.ib",
                        ib_log_bytes="wal.bytes.ib",
                        index_pages="index.pages_allocated"),
            "clustering": result.clustering_at_build_end["idx"]}


def _e14(update_steps: int, seed: int = 141) -> dict:
    """SF secondary build over an index-organized table under a seeded
    insert/delete/update stream."""
    system = System(SystemConfig(leaf_capacity=8, sort_workspace=32),
                    seed=seed)
    table = IOTable(system, "iot", ["pk", "city", "amount"])
    system.tables["iot"] = table

    def preload():
        txn = system.txns.begin()
        for i in range(300):
            yield from table.insert(txn, (i, f"city-{i % 11}", i))
        yield from txn.commit()

    def updater():
        rng = random.Random(seed ^ 0xABC)
        for step in range(update_steps):
            yield Delay(rng.uniform(0.1, 0.6))
            txn = system.txns.begin()
            live = sorted(table.rows)
            choice = rng.random()
            if choice < 0.4 or not live:
                yield from table.insert(
                    txn, (1000 + step, f"new-{step % 4}", step))
            elif choice < 0.7:
                yield from table.delete(txn, rng.choice(live))
            else:
                pk = rng.choice(live)
                yield from table.update(
                    txn, pk, (pk, f"upd-{step % 3}", step))
            if rng.random() < 0.15:
                yield from txn.rollback()
            else:
                yield from txn.commit()

    procs = [system.spawn(preload(), name="preload")]
    system.run()
    builder = SFIotBuilder(system, table, IndexSpec.of("idx_city", ["city"]))
    procs += [system.spawn(builder.run(), name="builder"),
              system.spawn(updater(), name="updater")]
    system.run()
    for proc in procs:
        if proc.error is not None:
            raise proc.error
    report = audit_index(system, system.indexes["idx_city"])
    return {"final_entries": report["entries"],
            "clustering": report["clustering"],
            "sidefile_drained": system.metrics.get("build.sidefile_drained")}


def _e15(algorithm: str, copy_when: str) -> dict:
    """Build under updates, dump the database before or after, then
    restore the dump and roll the archived log forward."""
    system, table, driver = _preloaded(151, 200, WorkloadSpec(
        operations=30, workers=2, think_time=0.8))
    image = take_image_copy(system) if copy_when == "before" else None
    builder = get_builder(algorithm)(system, table,
                                     IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    if proc.error is not None:
        raise proc.error
    if copy_when == "after":
        image = take_image_copy(system)
    system.log.flush()
    restored = media_restore(image, system.log, config=system.config,
                             current_system=system)
    try:
        audit_index(restored, restored.indexes["idx"])
        outcome = "index recovered"
    except ConsistencyError:
        outcome = "INDEX LOST"
    # the roll forward: the archive's records above the image's LSN
    return {"outcome": outcome,
            "log_records_replayed": system.log.last_lsn - image.copy_lsn}


def _e19(drain_batch: int) -> dict:
    """Charge drain descents like query descents (an ablation of the
    default calibration, where they ride the per-key CPU charge): the
    regime in which batching can shrink the catch-up window."""
    tracer = TraceRecorder()
    result = run_build_experiment(
        "sf", rows=1_000, operations=120, workers=3, seed=119,
        think_time=0.5, key_space=2_000,
        config=bench_config(drain_visit_cost=0.1),
        options=BuildOptions(drain_batch=drain_batch, sort_sidefile=True),
        tracer=tracer)
    phases = phase_durations(tracer.events)
    return {"drain_window": phases["drain:idx"],
            "whole_build": phases["build"],
            "backlog_high_water": max(
                (event["value"] for event in tracer.events
                 if event["kind"] == "gauge"
                 and event["name"] == "sidefile.backlog"), default=0),
            "diverging_episodes": len(drain_verdicts(tracer.events)["idx"]),
            **_counters(result, drained="build.sidefile_drained",
                        tree_traversals="index.traversals")}


def _rows() -> dict[str, Callable[[], dict]]:
    rows: dict[str, Callable[[], dict]] = {}
    for algorithm in ("offline", "nsf", "sf"):
        for operations in (0, 40):
            rows[f"e1/{algorithm}/ops{operations * 2}"] = partial(
                _e1, algorithm, operations)
    for operations in (0, 20, 60, 120):
        for algorithm in ("nsf", "sf", "offline"):
            rows[f"e2/{algorithm}/ops{operations * 3}"] = partial(
                _e2, algorithm, operations)
    for algorithm in ("offline", "nsf", "sf"):
        rows[f"e3/{algorithm}"] = partial(_e3, algorithm)
    for algorithm in ("nsf", "sf"):
        rows[f"e4/{algorithm}/rows800"] = partial(_e4_traversals, algorithm)
    for batch in (1, 4, 16, 64):
        rows[f"e4/batch{batch}"] = partial(_e4_batch, batch)
    for phase, body in (("sort", _e5_sort), ("merge", _e5_merge)):
        for interval in (0, 2_000, 1_000, 500, 250):
            rows[f"e5/{phase}/ckpt{interval or 'none'}"] = partial(
                body, interval)
    for interval in (None, 512, 128, 64):
        rows[f"e6/ckpt{interval or 'none'}"] = partial(_e6, interval)
    for algorithm in ("nsf", "sf"):
        for unique in (False, True):
            rows[f"e7/{algorithm}/{'unique' if unique else 'nonunique'}"] = \
                partial(_e7, algorithm, unique)
    for k in (1, 2, 3, 4):
        rows[f"e8/k{k}"] = partial(_e8, k)
    for operations in (0, 40, 120):
        for specialized in (True, False):
            rows[f"e9/{'specialized' if specialized else 'normal'}"
                 f"/ops{operations * 3}"] = partial(
                _e9, specialized, operations)
    for delete_weight in (0.5, 1.5, 3.0):
        rows[f"e10/delete_weight{delete_weight}"] = partial(
            _e10, delete_weight)
    for operations in (20, 60, 120, 240):
        rows[f"e11/ops{operations * 3}"] = partial(_e11_growth, operations)
    for sort_sidefile in (False, True):
        rows[f"e11/drain/{'sorted' if sort_sidefile else 'sequential'}"] = \
            partial(_e11_drain, sort_sidefile)
    for prefetch in (1, 2, 4, 8, 16):
        rows[f"e12/prefetch{prefetch}"] = partial(_e12_prefetch, prefetch)
    # 32 frames hold what eight readers have in flight (8 x 4-page
    # prefetch); the last row deliberately over-commits the pool
    for readers, frames in ((1, 32), (2, 32), (4, 32), (8, 32), (8, 24)):
        rows[f"e12/readers{readers}/frames{frames}"] = partial(
            _e12_readers, readers, frames)
    for algorithm in ("offline", "nsf", "sf"):
        rows[f"e13/{algorithm}"] = partial(_e13, algorithm)
    for update_steps in (0, 30, 90):
        rows[f"e14/ops{update_steps}"] = partial(_e14, update_steps)
    for algorithm in ("nsf", "sf"):
        for copy_when in ("before", "after"):
            rows[f"e15/{algorithm}/copy_{copy_when}"] = partial(
                _e15, algorithm, copy_when)
    for drain_batch in (1, 4, 16, 64):
        rows[f"e19/batch{drain_batch}"] = partial(_e19, drain_batch)
    return rows


def _rises(rows: dict[str, dict], names: list[str], field: str,
           key=lambda value: value) -> list[str]:
    """The rows of ``names`` whose ``field`` rose over the previous
    row's."""
    return [later for earlier, later in zip(names, names[1:])
            if key(rows[earlier][field]) < key(rows[later][field])]


def gates(rows: dict[str, dict]) -> list[str]:
    """Each claim of E1-E19, one gate each, on the simulated clock."""
    problems: list[str] = []

    def need(holds: bool, name: str, claim: str) -> None:
        if not holds:
            problems.append(f"{name}: {claim}")

    def at(name: str, field: str):
        return rows[name][field]

    # E1: SF and offline log nothing for IB keys when quiet; NSF logs
    # every insert, batched; under updates SF logs far less than NSF.
    need(at("e1/sf/ops0", "ib_log_recs") == 0, "e1/sf/ops0",
         "SF wrote IB log records on a quiet table")
    need(at("e1/offline/ops0", "ib_log_recs") == 0, "e1/offline/ops0",
         "offline wrote IB log records")
    need(at("e1/nsf/ops0", "ib_log_recs") > 0, "e1/nsf/ops0",
         "NSF wrote no IB log record")
    need(at("e1/sf/ops80", "ib_log_bytes")
         < at("e1/nsf/ops80", "ib_log_bytes") / 2, "e1/sf/ops80",
         "SF's IB log bytes not below half of NSF's under updates")
    need(at("e1/nsf/ops0", "ib_log_recs")
         < at("e1/nsf/ops0", "ib_tree_inserts"), "e1/nsf/ops0",
         "NSF's multi-key log records do not batch: no fewer than keys")

    # E2 (on the table's three-decimal cells): everyone is perfectly
    # clustered when quiet, offline always; SF never below NSF.
    def clustering(name: str) -> float:
        return round(at(name, "clustering"), 3)

    for algorithm in ("nsf", "sf", "offline"):
        need(clustering(f"e2/{algorithm}/ops0") == 1.0,
             f"e2/{algorithm}/ops0", "not perfectly clustered when quiet")
    for ops in (60, 180, 360):
        need(clustering(f"e2/offline/ops{ops}") == 1.0,
             f"e2/offline/ops{ops}", "offline build not perfectly clustered")
        need(clustering(f"e2/sf/ops{ops}")
             >= clustering(f"e2/nsf/ops{ops}") - 1e-9, f"e2/sf/ops{ops}",
             "SF less clustered than NSF")

    # E3: offline stalls the workload for most of its build; NSF's
    # quiesce is a sliver of its build; SF never quiesces.
    offline, nsf, sf = (rows[f"e3/{a}"] for a in ("offline", "nsf", "sf"))
    need(offline["longest_stall"] > offline["build_time"] * 0.5,
         "e3/offline", "longest stall not over half the build")
    need(nsf["quiesce_hold"] < nsf["build_time"] / 10, "e3/nsf",
         "quiesce hold not under a tenth of the build")
    need(sf["quiesce_wait"] == 0.0 and sf["quiesce_hold"] == 0.0, "e3/sf",
         "SF quiesced updates")
    for name, online in (("e3/nsf", nsf), ("e3/sf", sf)):
        need(online["longest_stall"] < offline["longest_stall"] / 2, name,
             "longest stall not under half of offline's")

    # E4: SF's bottom-up load never descends; NSF's remembered path
    # makes traversals rare; bigger batches write fewer log records.
    need(at("e4/sf/rows800", "traversals") == 0, "e4/sf/rows800",
         "SF descended the tree")
    need(at("e4/nsf/rows800", "traversals")
         < at("e4/nsf/rows800", "keys_placed") / 5, "e4/nsf/rows800",
         "NSF traversals not under one per five keys")
    need(at("e4/nsf/rows800", "path_reuses") > 0, "e4/nsf/rows800",
         "NSF never reused its remembered path")
    need(at("e4/batch1", "ib_log_recs") > at("e4/batch64", "ib_log_recs"),
         "e4/batch64", "batching did not cut IB log records")

    # E5: no checkpoint loses everything; tighter checkpoints lose
    # monotonically less.
    for phase, crash in (("sort", 4_000), ("merge", 3_500)):
        names = [f"e5/{phase}/ckpt{interval}"
                 for interval in ("none", 2000, 1000, 500, 250)]
        need(at(names[0], "keys_redone") == crash, names[0],
             f"lost {at(names[0], 'keys_redone')} keys, not all {crash}")
        problems.extend(f"{name}: a tighter checkpoint lost more work"
                        for name in _rises(rows, names, "keys_redone"))
    need(at("e5/merge/ckpt250", "keys_redone") <= 250, "e5/merge/ckpt250",
         "re-merged more than one checkpoint interval")

    # E6: no checkpoint wastes the most re-inserts, the tightest the
    # least, and the scenario did re-insert something.
    need(at("e6/ckptnone", "reinserts_rejected")
         >= at("e6/ckpt64", "reinserts_rejected"), "e6/ckpt64",
         "tightest interval wasted more than no checkpoint")
    need(at("e6/ckptnone", "reinserts_rejected") > 0, "e6/ckptnone",
         "no re-insert was rejected")

    # E7: every schedule audits clean, and the races fired.
    for label in ("nsf", "sf"):
        for kind in ("nonunique", "unique"):
            name = f"e7/{label}/{kind}"
            need(at(name, "schedules_ok") == len(E7_SEEDS), name,
                 "not every schedule audited clean")
    need(at("e7/nsf/nonunique", "ib_dup_rejects")
         + at("e7/nsf/nonunique", "tombstones") > 0, "e7/nsf/nonunique",
         "NSF's races never fired")
    need(at("e7/sf/nonunique", "sidefile_entries") > 0, "e7/sf/nonunique",
         "SF never used the side-file")

    # E8 (speedups on the table's two-decimal cells): one scan for k
    # indexes; sharing pays, the more the larger k.
    def speedup(name: str) -> float:
        return round(at(name, "speedup"), 2)

    for k in (1, 2, 3, 4):
        name = f"e8/k{k}"
        need(at(name, "pages_scanned_shared") * k
             == at(name, "pages_scanned_separate"), name,
             "shared scan not one k-th of k separate scans")
        if k > 1:
            need(speedup(name) > 1.0, name,
                 "shared build not faster than separate builds")
    need(speedup("e8/k4") > speedup("e8/k1"), "e8/k4",
         "speedup does not grow with k")

    # E9: on a quiet table the specialized split is a bottom-up build;
    # the half split moves keys and doubles the pages; under load the
    # specialized split still moves fewer keys.
    quiet, half = rows["e9/specialized/ops0"], rows["e9/normal/ops0"]
    need(round(quiet["clustering"], 3) == 1.0 and quiet["keys_moved"] == 0,
         "e9/specialized/ops0", "not a bottom-up build on a quiet table")
    need(half["keys_moved"] > 0, "e9/normal/ops0", "half split moved no key")
    need(half["index_pages"] > quiet["index_pages"] * 1.7, "e9/normal/ops0",
         "half split did not leave pages half empty")
    need(at("e9/specialized/ops360", "keys_moved")
         < at("e9/normal/ops360", "keys_moved"), "e9/specialized/ops360",
         "specialized split moved no fewer keys under load")

    # E10: heavier deletes leave more tombstones; GC removes them all.
    weights = ("0.5", "1.5", "3.0")
    need(at(f"e10/delete_weight{weights[-1]}", "tombstones_before")
         >= at(f"e10/delete_weight{weights[0]}", "tombstones_before"),
         f"e10/delete_weight{weights[-1]}",
         "heavier deletes left fewer tombstones")
    for weight in weights:
        name = f"e10/delete_weight{weight}"
        need(at(name, "tombstones_after") == 0, name,
             "tombstones left after GC")
        need(at(name, "gc_removed") == at(name, "tombstones_before"), name,
             "GC removed not every committed tombstone")

    # E11: the side-file grows with the update rate, the drain always
    # catches up, and the sorted first chunk is used.
    names = [f"e11/ops{ops}" for ops in (60, 180, 360, 720)]
    for earlier, later in zip(names, names[1:]):
        need(at(earlier, "sidefile_entries")
             <= at(later, "sidefile_entries"), later,
             "more updates, shorter side-file")
    for name in names:
        need(at(name, "sidefile_entries") == at(name, "drained"), name,
             "drained != appended")
    need(at("e11/drain/sorted", "drained_from_sorted_chunk") > 0,
         "e11/drain/sorted", "the sorted-chunk path never ran")

    # E12 (build and scan times on the table's one-decimal cells):
    # deeper prefetch, fewer I/Os and a faster build; more readers, a
    # shorter scan and no more I/O while the pool holds their pages;
    # the over-committed pool re-reads evicted prefetches.
    names = [f"e12/prefetch{p}" for p in (1, 2, 4, 8, 16)]
    problems.extend(f"{name}: deeper prefetch, more disk reads"
                    for name in _rises(rows, names, "disk_reads"))
    need(round(at(names[-1], "build_time"), 1)
         < round(at(names[0], "build_time"), 1), names[-1],
         "deepest prefetch not faster than none")
    need(at(names[0], "disk_reads") > 3 * at(names[-1], "disk_reads"),
         names[-1], "prefetch did not cut disk reads threefold")
    held = [f"e12/readers{r}/frames32" for r in (1, 2, 4, 8)]
    over = "e12/readers8/frames24"
    need(round(at(held[-1], "scan_sort_time"), 1)
         < round(at(held[0], "scan_sort_time"), 1) / 2, held[-1],
         "eight readers did not halve the scan")
    for name in held:
        need(at(name, "disk_reads") <= at(held[0], "disk_reads")
             and at(name, "stale_prefetches") == 0, name,
             "more readers read more or wasted prefetches")
    need(at(over, "stale_prefetches") > 0, over,
         "over-committed pool wasted no prefetch")
    need(at(over, "disk_reads") > at(held[-1], "disk_reads"), over,
         "over-committed pool read no more often")
    need(at(over, "pages_read") > at(held[0], "pages_read"), over,
         "over-committed pool read no page twice")

    # E13: the paper's summary ordering.
    offline, nsf, sf = (rows[f"e13/{a}"] for a in ("offline", "nsf", "sf"))
    for name, online in (("e13/sf", sf), ("e13/nsf", nsf)):
        need(offline["longest_stall"] > 5 * online["longest_stall"], name,
             "offline's stall not five times this one's")
    need(sf["ib_log_bytes"] < nsf["ib_log_bytes"], "e13/sf",
         "SF's IB logged no less than NSF's")
    need(sf["build_time"] < nsf["build_time"], "e13/sf",
         "SF built no faster than NSF")
    need(sf["clustering"] >= nsf["clustering"] - 1e-9, "e13/sf",
         "SF less clustered than NSF")
    need(offline["build_time"] < sf["build_time"], "e13/offline",
         "offline not the fastest build")

    # E14: a quiet IOT build drains nothing and clusters perfectly; a
    # busy one routes through the side-file by current key.
    need(at("e14/ops0", "sidefile_drained") == 0, "e14/ops0",
         "quiet build drained a side-file")
    need(at("e14/ops90", "sidefile_drained") > 0, "e14/ops90",
         "busy build drained no side-file")
    need(round(at("e14/ops0", "clustering"), 2) == 1.0, "e14/ops0",
         "quiet build not perfectly clustered")

    # E15: NSF's logged inserts survive a pre-build dump; SF's unlogged
    # load does not -- dump after the build.
    for name, outcome in (("e15/nsf/copy_before", "index recovered"),
                          ("e15/nsf/copy_after", "index recovered"),
                          ("e15/sf/copy_before", "INDEX LOST"),
                          ("e15/sf/copy_after", "index recovered")):
        need(at(name, "outcome") == outcome, name,
             f"{at(name, 'outcome')!r}, expected {outcome!r}")

    # E19 (on the table's one-decimal windows): batching shrinks the
    # drain window without changing what is drained, and the report
    # judges the drain no worse for it: never more diverging episodes,
    # none at the largest batch.
    names = [f"e19/batch{b}" for b in (1, 4, 16, 64)]
    problems.extend(f"{name}: larger drain batch, wider drain window"
                    for name in _rises(rows, names, "drain_window",
                                       key=lambda window: round(window, 1)))
    problems.extend(f"{name}: larger drain batch, more diverging episodes"
                    for name in _rises(rows, names, "diverging_episodes"))
    need(at(names[-1], "diverging_episodes") == 0, names[-1],
         "the drain diverged at the largest batch")
    need(len({at(name, "drained") for name in names}) <= 2, names[-1],
         "drained counts diverged")
    return problems


SUITE = Suite("paper", _rows(), gates)
