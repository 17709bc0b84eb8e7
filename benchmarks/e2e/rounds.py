"""One round: a fresh system driven through preload, index build under
traffic, flip, and serving, in timed slices of simulated time.

Rounds of one run replay the same inputs on the same deterministic
simulator, so they agree exactly on everything except host time; that
is what lets ``timing.ss_min`` take each slice from its cleanest round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import process_time

from repro import (
    IndexSpec,
    System,
    SystemConfig,
    audit_index,
    build_pre_undo,
    restart,
    resume_build,
    run_until_crash,
)
from repro.core import get_builder
from repro.sim.kernel import Join

from load import (
    ABORTED,
    HOT_RIDS,
    OK,
    PRELOAD_TXN_ROWS,
    LiveRids,
    Results,
    Traffic,
    preload_txn,
)
from timing import calibration_chunk, percentile
from workloads import Workload

TABLE = "t"
COLUMNS = ("k", "a", "p")
#: preload rows per timed slice (two transactions)
SETUP_SLICE_ROWS = 2 * PRELOAD_TXN_ROWS
#: measured CPU seconds between two calibration chunks
CALIBRATE_EVERY = 0.1

#: counters copied from ``system.metrics`` deltas (preload excluded)
COUNTERS = (
    "wal.records", "wal.bytes", "wal.forces",
    "buffer.hits", "buffer.misses", "buffer.evictions.dirty",
    "disk.reads", "disk.writes",
    "lock.requests", "lock.waits", "lock.deadlocks",
    "latch.requests", "latch.waits", "semaphore.disk.waits",
    "txn.commits", "txn.rollbacks",
    "index.traversals", "index.page_visits", "index.splits",
    "index.inserts.bulk", "index.inserts.txn", "index.inserts.ib",
    "index.inserts.drain",
    "sidefile.appends", "build.sidefile_drained", "build.pages_scanned",
    "build.utility_checkpoints",
    "recovery.redos", "recovery.losers_rolled_back",
    "query.index_lookups", "query.range_scans",
)


class BenchError(Exception):
    """A correctness gate failed; the run prints no metrics."""


@dataclass
class RoundResult:
    #: CPU seconds per slice, by phase ("setup", "build", "serve")
    slices: dict = field(default_factory=dict)
    #: the exact end-to-end metrics (simulated clock and counts)
    exact: dict = field(default_factory=dict)
    #: exact per-layer counters
    counters: dict = field(default_factory=dict)
    #: sizes behind the ratios: operations, samples per window, keys
    counts: dict = field(default_factory=dict)
    #: calibration chunks run between the slices, CPU milliseconds
    chunks_ms: list = field(default_factory=list)

    def cpu(self) -> float:
        """Raw CPU seconds of every timed slice."""
        return sum(sum(times) for times in self.slices.values())


def system_config(workload: Workload) -> SystemConfig:
    return SystemConfig(
        page_capacity=16, leaf_capacity=16, branch_capacity=16,
        sort_workspace=256, merge_fanin=8,
        buffer_frames=workload.buffer_frames,
        disk_channels=workload.disk_channels)


class Round:
    def __init__(self, workload: Workload, seed: int, rows, ops,
                 profiler=None) -> None:
        self.workload = workload
        self.seed = seed
        self.rows = rows
        self.ops = ops
        self.profiler = profiler
        self.setup_times: list[float] = []
        #: (logical start, CPU seconds) of every slice after the preload
        self.timed: list[tuple[float, float]] = []
        self.results = Results(len(ops))
        self.live = LiveRids()
        self.hot = LiveRids()
        self.model: dict = {}
        #: logical clock = system clock + offset (non-zero after restart)
        self.offset = 0.0
        #: the builder running (or last run) in this round
        self.builder = None
        self.flip_at = None
        self.flip_lsn = 0
        self.bad_reads = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.lock_wait_time = 0.0
        #: calibration chunks interleaved with the slices (milliseconds)
        self.calib = [calibration_chunk()]
        self.since_calib = 0.0

    # -- timing ------------------------------------------------------------

    def _cpu(self, fn, *args, **kwargs):
        """Run ``fn`` and return ``(its result, CPU seconds)``; the
        traced round profiles exactly the timed regions."""
        profiler = self.profiler
        if profiler is not None:
            profiler.enable()
        start = process_time()
        value = fn(*args, **kwargs)
        spent = process_time() - start
        if profiler is not None:
            profiler.disable()
        self.since_calib += spent
        if self.since_calib >= CALIBRATE_EVERY:
            self.since_calib = 0.0
            self.calib.append(calibration_chunk())
        return value, spent

    def _slice(self, start: float, fn, *args, **kwargs):
        """Time ``fn`` as the slice starting at logical time ``start``."""
        value, spent = self._cpu(fn, *args, **kwargs)
        self.timed.append((start, spent))
        return value

    def _run_slice(self, system, until=None) -> None:
        self._slice(system.now() + self.offset, system.run, until)

    # -- the round ---------------------------------------------------------

    def run(self) -> RoundResult:
        system, table = self._setup()
        workload = self.workload
        before = system.metrics.snapshot()
        wait_before = system.metrics.stat("lock.wait_time").total
        origin = system.now()
        self.build_lsn = system.log.last_lsn
        traffic = self._start(system, table, origin)
        width = workload.slice_width
        done = 0
        if workload.crash_after is not None:
            crash_at = origin + workload.crash_after
            while origin + (done + 1) * width < crash_at:
                done += 1
                self._run_slice(system, origin + done * width)
            system, table, traffic = self._crash_and_restart(
                system, traffic, origin, crash_at, before, wait_before)
            before, wait_before = {}, 0.0
            origin = system.now()
        for step in range(1, workload.slices - done + 1):
            self._run_slice(system, origin + step * width)
        self._run_slice(system)
        self._fold_counters(system, before, wait_before)
        self.bad_reads += traffic.bad_reads
        return self._finish(system, table)

    def _setup(self):
        """Create the system and preload the table, in timed slices."""
        workload = self.workload

        def create():
            system = System(system_config(workload), seed=self.seed)
            return system, system.create_table(TABLE, COLUMNS)

        (system, table), spent = self._cpu(create)
        rows = self.rows
        rids: list = []

        def load_slice(first):
            for start in range(first, min(first + SETUP_SLICE_ROWS,
                                          len(rows)),
                               PRELOAD_TXN_ROWS):
                system.spawn(preload_txn(
                    system, table, rows[start:start + PRELOAD_TXN_ROWS],
                    rids), name="preload")
                system.run()

        for first in range(0, len(rows), SETUP_SLICE_ROWS):
            _none, more = self._cpu(load_slice, first)
            self.setup_times.append(spent + more)
            spent = 0.0
        if len(rids) != len(rows):
            raise BenchError(f"preload stored {len(rids)} of "
                             f"{len(rows)} rows")
        self.model = dict(zip(rids, rows))
        self._adopt_rows(self.model, rids[::len(rids) // HOT_RIDS]
                         [:HOT_RIDS])
        return system, table

    def _adopt_rows(self, rows_by_rid: dict, hot_rids) -> None:
        """(Re)build the victim lists from the table's contents."""
        self.live, self.hot = LiveRids(), LiveRids()
        hot = set(hot_rids)
        for rid, row in rows_by_rid.items():
            (self.hot if rid in hot else self.live).add(rid, row[0])

    def _start(self, system, table, origin, first=0,
               resumed=None) -> Traffic:
        """Spawn the load dispatcher and the build coordinator."""
        traffic = Traffic(system, table, self.ops, self.results,
                          self.live, self.hot, self.model,
                          first_p=len(self.rows),
                          clock_offset=self.offset)
        system.spawn(traffic.dispatcher(origin, first), name="dispatcher")
        system.spawn(self._build_all(system, table, traffic, resumed),
                     name="coordinator")
        return traffic

    def _build_all(self, system, table, traffic, resumed):
        """Generator process: run the builds back to back, then switch
        the read mix over to the finished indexes."""
        for self.builder in self._builders(system, table, resumed):
            yield Join(system.spawn(self.builder.run(), name="builder"))
        self.flip_at = system.now() + self.offset
        self.flip_lsn = system.log.last_lsn
        traffic.indexes = [system.indexes[name]
                           for name, _columns in self.workload.indexes]

    def _builders(self, system, table, resumed):
        """Each builder is made only when the one before has finished."""
        if resumed is not None:
            yield resumed
            return
        builder_class = get_builder(self.workload.builder)
        for name, columns in self.workload.indexes:
            yield builder_class(system, table, IndexSpec.of(name, columns))

    # -- crash, restart, resume (restart_sf) --------------------------------

    def _crash_and_restart(self, system, traffic, origin, crash_at,
                           before, wait_before):
        workload = self.workload
        self._slice(system.now(), run_until_crash, system, crash_at)
        marks = self.builder.timings
        if "scan_done" not in marks or "load_done" in marks:
            raise BenchError(
                f"{workload.name}: the crash at +{workload.crash_after} "
                f"did not land in the bulk load (builder marks: "
                f"{sorted(marks)})")
        self._fold_counters(system, before, wait_before)
        self.bad_reads += traffic.bad_reads
        recovered, state = self._slice(crash_at, restart, system,
                                       pre_undo=build_pre_undo)
        if state.get("phase") != workload.crash_phase:
            raise BenchError(
                f"{workload.name}: recovered utility phase "
                f"{state.get('phase')!r}, expected "
                f"{workload.crash_phase!r}")
        self.offset = crash_at
        table = recovered.tables[TABLE]
        survived = {rid: record.values
                    for rid, record in table.audit_records()}
        undecided = {rid for rid in self.results.inflight.values()
                     if rid is not None}
        check_durability(self.model, undecided, survived)
        self.results.inflight.clear()
        self.model = survived
        self._adopt_rows(survived, self.hot.rids)
        resumed = resume_build(recovered, state)
        if resumed is None:
            raise BenchError(f"{workload.name}: nothing to resume")
        traffic = self._start(recovered, table, origin,
                              first=traffic.sent, resumed=resumed)
        return recovered, table, traffic

    # -- results -----------------------------------------------------------

    def _fold_counters(self, system, before, wait_before) -> None:
        delta = system.metrics.delta(before)
        for name in COUNTERS:
            self.counters[name] += delta.get(name, 0)
        self.lock_wait_time += \
            system.metrics.stat("lock.wait_time").total - wait_before

    def _finish(self, system, table) -> RoundResult:
        workload = self.workload
        results = self.results
        if self.flip_at is None:
            raise BenchError(f"{workload.name}: the build never finished")
        if results.inflight:
            raise BenchError(f"{workload.name}: {len(results.inflight)} "
                             "operations never completed")
        if self.bad_reads:
            raise BenchError(f"{workload.name}: {self.bad_reads} reads "
                             "returned rows that do not match their key")
        # Untimed: write the dirty pages out and empty the pool, so each
        # audit below reads a page from disk once.  Left resident, every
        # page costs audit_records a search of all frames, 0.2 s a call
        # on the tables that fit the pool.
        system.spawn(system.buffer.flush_all(), name="flush")
        system.run()
        system.buffer.crash()
        keys = pages = 0
        for name, _columns in workload.indexes:
            descriptor = system.indexes[name]
            if not descriptor.is_available:
                raise BenchError(f"{name} is not AVAILABLE")
            keys += audit_index(system, descriptor)["entries"]
            pages += descriptor.tree.page_count
        stored = {rid: record.values
                  for rid, record in table.audit_records()}
        if stored != self.model:
            raise BenchError(
                f"{workload.name}: the table holds {len(stored)} rows, "
                f"the acknowledged operations imply {len(self.model)}, "
                "or their contents differ")

        flip = self.flip_at
        origin = self.timed[0][0]
        build_times = [cpu for start, cpu in self.timed if start < flip]
        serve_times = [cpu for start, cpu in self.timed if start >= flip]
        if not serve_times:
            raise BenchError(f"{workload.name}: the flip at {flip:.0f} "
                             "came after the last timed slice")
        serve_from = self.timed[len(build_times)][0]
        window = {"build": [], "serve": []}
        ok = within = served = aborted = 0
        limit = workload.slo_limit
        for op, done_at, outcome in zip(self.ops, results.done_at,
                                        results.outcome):
            due = origin + op.due
            served += due >= serve_from
            if outcome != OK:
                aborted += outcome == ABORTED
                continue
            ok += 1
            latency = done_at - due
            within += latency <= limit
            window["build" if due < flip else "serve"].append(latency)
        attempted = len(self.ops)
        foreground = results.txn_ids
        builder_wal = sum(
            record.size
            for record in system.log.scan(self.build_lsn + 1,
                                          self.flip_lsn)
            if record.txn_id not in foreground)

        counters = dict(self.counters)
        counters["lock.wait_time"] = self.lock_wait_time
        touched = counters["buffer.hits"] + counters["buffer.misses"]
        counters["buffer.hit_ratio"] = \
            counters["buffer.hits"] / touched if touched else 1.0
        return RoundResult(
            slices={"setup": self.setup_times, "build": build_times,
                    "serve": serve_times},
            exact={
                "sim_build_time": flip - origin,
                "fg_p50_build": percentile(window["build"], 50, 5.0),
                "fg_p99_build": percentile(window["build"], 99),
                "fg_p99_serve": percentile(window["serve"], 99),
                "fg_slo_ok_share": within / attempted,
                "fg_ok_share": ok / attempted,
                "build_wal_bytes_per_key": builder_wal / keys,
                "index_pages_per_kkey": pages * 1000.0 / keys,
            },
            counters=counters,
            chunks_ms=self.calib,
            counts={
                "attempted": attempted,
                "ok": ok,
                "aborted": aborted,
                "cut": attempted - ok - aborted,
                "build_samples": len(window["build"]),
                "serve_samples": len(window["serve"]),
                "serve_ops": served,
                "keys": keys,
                "slices": len(self.setup_times) + len(self.timed),
                "generator_late_max": results.late_max,
            })


def check_durability(acknowledged: dict, undecided: set,
                     survived: dict) -> None:
    """After restart: every acknowledged row is there unchanged, and
    nothing else is, except what commits in flight at the crash may
    have made durable."""
    for rid, row in acknowledged.items():
        if rid not in undecided and survived.get(rid) != row:
            raise BenchError(
                f"durability: acknowledged row {rid} = {row} came back "
                f"as {survived.get(rid)}")
    for rid, row in survived.items():
        if rid not in acknowledged and rid not in undecided:
            raise BenchError(
                f"durability: row {rid} = {row} survived the crash but "
                "was never acknowledged (rolled back or in flight)")
