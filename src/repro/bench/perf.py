"""Build-cost suite on the simulated clock (suite ``perf`` of
``python -m repro.bench``).

Deterministic builds whose simulated cost, counters, per-phase durations
and build-series stats are compared exactly with the committed baseline:

* ``build/*`` -- offline / NSF / SF at two table sizes, and NSF and SF
  again under a concurrent update workload;
* ``rebuild/reuse_runs`` -- drop+rebuild from the sealed final run;
* ``parallel_sf/p{1,2,4,8}`` -- the partitioned build's P-sweep under a
  workload, with scan+sort and shard-merge phase times and shard balance;
* ``serve/sf/ch8`` -- reads through the new index after an SF build, on
  eight disk channels and a pool a fifth of the table: one-row lookups
  and ten-row range scans, one at a time, with their latencies and reads;
* ``writebehind/sf/ch8`` -- an SF build under traffic on eight disk
  channels and a pool a fifth of the table: the build's dirty victims
  written by the buffer pool's write-behind against those the scan and
  the foreground misses wrote themselves;
* ``readahead/sf/ch8`` -- the same build: the pages its scan read ahead
  on idle channels, and the frames it recycled against the dirty
  victims evictors wrote.

Self-gates (:func:`gates`): zero table pages rescanned by the rebuild,
the scan+sort speedup at P=4, no one-row lookup reading a second record,
the range scans' reads overlapping, write-behind writing more of the
build's dirty victims than their evictors do, and the scan reading ahead
and recycling more frames than evictors write dirty ones.
Host time is ``benchmarks/e2e``'s business, not this suite's.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.bench.harness import bench_config, run_build_experiment
from repro.bench.runner import Suite
from repro.core import BuildOptions

#: the acceptance floor for the parallel scan+sort speedup at P=4 vs P=1
MIN_PSF_SCAN_SPEEDUP = 1.5
#: the floor for the range scans' read overlap: their reads' serial time
#: over their elapsed time
MIN_RANGE_READ_OVERLAP = 2.0

SEED = 42
REBUILD_ROWS = 400
PSF_PARTITIONS = (1, 2, 4, 8)
SERVE_ROWS = 1_200
SERVE_FRAMES = 32  # the table is 150 pages
SERVE_LOOKUPS, SERVE_RANGES, RANGE_ROWS = 40, 20, 10
WRITE_BEHIND_ROWS, WRITE_BEHIND_OPERATIONS = 900, 90
WRITE_BEHIND_FRAMES = 24  # the table is 119 pages


def _trace_extras(recorder, system) -> dict:
    """Row fields derived from the build's passive trace: per-phase
    simulated durations plus the build-series stat snapshots."""
    from repro.obs import phase_durations

    series = {name: stats for name, stats
              in system.metrics.snapshot_stats().items()
              if name.startswith(("build.", "psf."))}
    return {"phases": phase_durations(recorder.events), "series": series}


def _build_scenario(*, algorithm: str, rows: int,
                    operations: int = 0) -> dict:
    from repro.obs import TraceRecorder

    params = {"algorithm": algorithm, "rows": rows,
              "operations": operations, "workers": 2, "seed": SEED}
    options = BuildOptions(checkpoint_every_keys=200,
                           commit_every_keys=128)
    recorder = TraceRecorder()
    result = run_build_experiment(
        algorithm, rows=rows, operations=operations, workers=2,
        seed=SEED, options=options, config=bench_config(),
        tracer=recorder)
    interesting = ("index.inserts.ib", "index.splits", "index.traversals",
                   "index.page_visits", "sidefile.appends",
                   "build.sidefile_drained", "wal.records",
                   "build.ib_commits", "sort.keys_pushed")
    counters = {key: result.counters[key] for key in interesting
                if key in result.counters}
    return {"params": params,
            "sim_time": result.build_time,
            "counters": counters,
            **_trace_extras(recorder, result.system)}


def _rebuild_scenario() -> dict:
    """Drop+rebuild from sealed runs.

    An SF build seals its final merged run; ``rebuild_index``
    then reconstructs the same index from the sealed store.  The row
    records the table pages the rebuild scanned (gated to be zero) and
    the simulated-clock speedup over the original build.
    """
    from repro.verify import audit_index

    params = {"algorithm": "rebuild", "rows": REBUILD_ROWS, "seed": SEED}
    options = BuildOptions(checkpoint_every_keys=200,
                           commit_every_keys=128)
    seed_build = run_build_experiment(
        "sf", rows=REBUILD_ROWS, operations=0, workers=2, seed=SEED,
        options=options, config=bench_config())
    system = seed_build.system
    before = system.metrics.snapshot()
    builder = system.rebuild_index("idx", options=BuildOptions(
        checkpoint_every_keys=200, commit_every_keys=128))
    proc = system.spawn(builder.run(), name="rebuild")
    system.run()
    if proc.error is not None:
        raise proc.error
    audit_index(system, system.indexes["idx"])
    delta = system.metrics.delta(before)
    pages = delta.get("build.pages_scanned", 0)
    sim_time = builder.timings.get("done", system.now()) \
        - builder.timings.get("start", 0.0)
    interesting = ("rebuild.runs_reused", "index.inserts.bulk",
                   "build.sidefile_drained", "wal.records")
    counters = {key: delta[key] for key in interesting if key in delta}
    counters["build.pages_scanned"] = pages
    return {"params": params,
            "sim_time": sim_time,
            "counters": counters,
            "pages_scanned_delta": pages,
            "seed_build_sim_time": seed_build.build_time,
            "speedup_vs_seed_build": seed_build.build_time / sim_time}


def _parallel_sf_run(partitions: int, *, rows: int = 600,
                     operations: int = 60) -> dict:
    """One PSF build at ``partitions`` shards under a concurrent workload:
    the scan+sort phase time (``scan_done - start``), the shard-merge
    phase time, and the per-shard balance of the range partitioning."""
    from repro.metrics import partition_skew
    from repro.obs import TraceRecorder

    params = {"algorithm": "psf", "partitions": partitions, "rows": rows,
              "operations": operations, "workers": 2, "seed": SEED}
    options = BuildOptions(checkpoint_every_keys=200,
                           commit_every_keys=128, partitions=partitions)
    recorder = TraceRecorder()
    result = run_build_experiment(
        "psf", rows=rows, operations=operations, workers=2, seed=SEED,
        options=options, config=bench_config(), tracer=recorder)
    timings = result.builder.timings
    scan_sort = timings["scan_done"] - timings["start"]
    merge = timings.get("pmerge_done", timings["scan_done"]) \
        - timings["scan_done"]
    total = result.build_time
    interesting = ("build.pages_scanned", "sort.keys_pushed",
                   "sidefile.appends", "build.sidefile_drained",
                   "psf.scan_workers", "psf.manifest_checkpoints",
                   "wal.records")
    counters = {key: result.counters[key] for key in interesting
                if key in result.counters}
    metrics = result.system.metrics
    return {"params": params,
            "sim_time": total,
            "counters": counters,
            "scan_sort_sim_time": scan_sort,
            "merge_sim_time": merge,
            "merge_share": merge / total,
            "partition_skew": {
                "pages_scanned": partition_skew(
                    metrics, "psf.pages_scanned", partitions),
                "shard_keys": partition_skew(
                    metrics, "psf.shard_keys", partitions),
                "sidefile_appends": partition_skew(
                    metrics, "psf.sidefile_appends", partitions),
            },
            **_trace_extras(recorder, result.system)}


def _served_reads() -> dict:
    """Lookups and range scans through a fresh SF-built index, each its
    own transaction, one at a time: per-kind latency and disk reads."""
    from repro.btree.node import entry_key
    from repro.metrics import ordered_sum
    from repro.query import index_lookup, index_range_scan
    from repro.storage.disk import Disk

    params = {"algorithm": "sf", "rows": SERVE_ROWS, "disk_channels": 8,
              "buffer_frames": SERVE_FRAMES, "lookups": SERVE_LOOKUPS,
              "ranges": SERVE_RANGES, "range_rows": RANGE_ROWS,
              "seed": SEED}
    result = run_build_experiment(
        "sf", rows=SERVE_ROWS, seed=SEED, config=bench_config(
            disk_channels=8, buffer_frames=SERVE_FRAMES))
    system = result.system
    descriptor = system.indexes["idx"]
    keys = [entry_key(entry) for entry in descriptor.tree.all_entries()]
    stride = len(keys) // SERVE_LOOKUPS
    lookups = [keys[i * stride] for i in range(SERVE_LOOKUPS)]
    stride = (len(keys) - RANGE_ROWS) // SERVE_RANGES
    ranges = [(keys[i * stride], keys[i * stride + RANGE_ROWS])
              for i in range(SERVE_RANGES)]
    served = {"lookup": [], "range": []}

    def serve():
        for kind, args in [("lookup", key) for key in lookups] \
                + [("range", bounds) for bounds in ranges]:
            txn = system.txns.begin()
            start, reads = system.now(), system.metrics.get("disk.reads")
            if kind == "lookup":
                rows = yield from index_lookup(txn, descriptor, args)
            else:
                rows = yield from index_range_scan(txn, descriptor, *args)
            served[kind].append((system.now() - start, len(rows),
                                 system.metrics.get("disk.reads") - reads))
            yield from txn.commit()

    before = system.metrics.snapshot()
    proc = system.spawn(serve(), name="serve")
    system.run()
    if proc.error is not None:
        raise proc.error
    delta = system.metrics.delta(before)

    def kind_fields(ops):
        latencies = [latency for latency, _rows, _reads in ops]
        return {"ops": len(ops),
                "rows": sum(rows for _latency, rows, _reads in ops),
                "reads": sum(reads for _latency, _rows, reads in ops),
                "latency_mean": ordered_sum(latencies) / len(ops),
                "latency_max": max(latencies)}

    ranges_served = served["range"]
    return {"params": params,
            "lookup": {**kind_fields(served["lookup"]),
                       "one_row_max_reads": max(
                           reads for _latency, rows, reads
                           in served["lookup"] if rows == 1)},
            "range": {**kind_fields(ranges_served),
                      "read_overlap": ordered_sum(
                          reads * Disk.RANDOM_IO
                          for _latency, _rows, reads in ranges_served)
                      / ordered_sum(latency for latency, _rows, _reads
                                    in ranges_served)},
            "counters": {key: delta.get(key, 0) for key in (
                "disk.reads", "buffer.misses", "semaphore.disk.waits",
                "query.index_lookups", "query.range_scans")}}


def _write_behind_build() -> dict:
    """An SF build under traffic on a pool a fifth of the table and eight
    disk channels: its simulated time, and who wrote the dirty victims
    -- the evicting scan or foreground miss (``buffer.evictions.dirty``)
    or the buffer pool's write-behind (``buffer.write_behinds``)."""
    params = {"algorithm": "sf", "rows": WRITE_BEHIND_ROWS,
              "operations": WRITE_BEHIND_OPERATIONS, "workers": 2,
              "disk_channels": 8, "buffer_frames": WRITE_BEHIND_FRAMES,
              "seed": SEED}
    result = run_build_experiment(
        "sf", rows=WRITE_BEHIND_ROWS, operations=WRITE_BEHIND_OPERATIONS,
        workers=2, seed=SEED, options=BuildOptions(
            checkpoint_every_keys=200, commit_every_keys=128),
        config=bench_config(disk_channels=8,
                            buffer_frames=WRITE_BEHIND_FRAMES))
    return {"params": params,
            "sim_time": result.build_time,
            "counters": {key: result.counter(key) for key in (
                "buffer.evictions.dirty", "buffer.write_behinds",
                "buffer.evictions.clean", "disk.writes",
                "semaphore.disk.waits")}}


def _read_ahead_build() -> dict:
    """The ``writebehind/sf/ch8`` build seen from its scan: the pages it
    read ahead (``buffer.read_aheads``) and the frames it handed back
    to the LRU end (``buffer.scan_recycled``), against every dirty
    victim an evictor wrote during the build
    (``buffer.evictions.dirty``)."""
    params = {"algorithm": "sf", "rows": WRITE_BEHIND_ROWS,
              "operations": WRITE_BEHIND_OPERATIONS, "workers": 2,
              "disk_channels": 8, "buffer_frames": WRITE_BEHIND_FRAMES,
              "seed": SEED}
    result = run_build_experiment(
        "sf", rows=WRITE_BEHIND_ROWS, operations=WRITE_BEHIND_OPERATIONS,
        workers=2, seed=SEED, options=BuildOptions(
            checkpoint_every_keys=200, commit_every_keys=128),
        config=bench_config(disk_channels=8,
                            buffer_frames=WRITE_BEHIND_FRAMES))
    return {"params": params,
            "sim_time": result.build_time,
            "counters": {key: result.counter(key) for key in (
                "buffer.read_aheads", "buffer.scan_recycled",
                "buffer.evictions.dirty", "buffer.evictions.clean",
                "disk.reads", "build.pages_scanned")}}


def _rows() -> dict[str, Callable[[], dict]]:
    rows: dict[str, Callable[[], dict]] = {}
    for count in (300, 900):
        for algorithm in ("offline", "nsf", "sf"):
            rows[f"build/{algorithm}/rows{count}"] = partial(
                _build_scenario, algorithm=algorithm, rows=count)
    for algorithm in ("nsf", "sf"):
        rows[f"build/{algorithm}/rows300/workload"] = partial(
            _build_scenario, algorithm=algorithm, rows=300, operations=60)
    rows["rebuild/reuse_runs"] = _rebuild_scenario
    for partitions in PSF_PARTITIONS:
        rows[f"parallel_sf/p{partitions}"] = partial(
            _parallel_sf_run, partitions)
    rows["serve/sf/ch8"] = _served_reads
    rows["writebehind/sf/ch8"] = _write_behind_build
    rows["readahead/sf/ch8"] = _read_ahead_build
    return rows


def gates(rows: dict[str, dict]) -> list[str]:
    """The suite's own acceptance gates, all on the simulated clock."""
    problems: list[str] = []
    rescanned = rows["rebuild/reuse_runs"]["pages_scanned_delta"]
    if rescanned != 0:
        problems.append(
            f"rebuild/reuse_runs: rescanned {rescanned} table pages "
            "instead of reusing the sealed runs")
    ratio = rows["parallel_sf/p1"]["scan_sort_sim_time"] \
        / rows["parallel_sf/p4"]["scan_sort_sim_time"]
    if ratio < MIN_PSF_SCAN_SPEEDUP:
        problems.append(
            f"parallel_sf/p4: scan+sort speedup {ratio:.2f}x over P=1 "
            f"under floor {MIN_PSF_SCAN_SPEEDUP:.2f}x")
    served = rows["serve/sf/ch8"]
    if served["lookup"]["one_row_max_reads"] > 1:
        problems.append(
            f"serve/sf/ch8: a one-row lookup read "
            f"{served['lookup']['one_row_max_reads']} pages, not one")
    overlap = served["range"]["read_overlap"]
    if overlap < MIN_RANGE_READ_OVERLAP:
        problems.append(
            f"serve/sf/ch8: range scans' reads overlap {overlap:.2f}x, "
            f"under floor {MIN_RANGE_READ_OVERLAP:.2f}x")
    written = rows["writebehind/sf/ch8"]["counters"]
    if written["buffer.write_behinds"] <= written["buffer.evictions.dirty"]:
        problems.append(
            f"writebehind/sf/ch8: write-behind wrote "
            f"{written['buffer.write_behinds']} dirty victims, their "
            f"evictors {written['buffer.evictions.dirty']}")
    scan = rows["readahead/sf/ch8"]["counters"]
    if scan["buffer.read_aheads"] <= 0 \
            or scan["buffer.scan_recycled"] <= scan["buffer.evictions.dirty"]:
        problems.append(
            f"readahead/sf/ch8: {scan['buffer.read_aheads']} pages read "
            f"ahead, {scan['buffer.scan_recycled']} frames recycled "
            f"against {scan['buffer.evictions.dirty']} dirty evictions")
    return problems


SUITE = Suite("perf", _rows(), gates)
