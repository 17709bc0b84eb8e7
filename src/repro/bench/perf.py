"""Build-cost suite on the simulated clock (suite ``perf`` of
``python -m repro.bench``).

Deterministic builds whose simulated cost, counters, per-phase durations
and build-series stats are compared exactly with the committed baseline:

* ``build/*`` -- offline / NSF / SF at two table sizes, and NSF and SF
  again under a concurrent update workload;
* ``rebuild/reuse_runs`` -- drop+rebuild from the sealed final run;
* ``parallel_sf/p{1,2,4,8}`` -- the partitioned build's P-sweep under a
  workload, with scan+sort and shard-merge phase times and shard balance.

Self-gates (:func:`gates`): zero table pages rescanned by the rebuild,
and the scan+sort speedup at P=4.
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

SEED = 42
REBUILD_ROWS = 400
PSF_PARTITIONS = (1, 2, 4, 8)


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
    return problems


SUITE = Suite("perf", _rows(), gates)
