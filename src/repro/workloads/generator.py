"""Transaction workload generation.

Drives the update transactions the paper's execution model assumes run
concurrently with IB.  A :class:`WorkloadDriver` spawns worker processes
that insert, delete, and update records with configurable mix, key
distribution, think time, and deliberate-rollback fraction (rollbacks are
what exercise the undo-only records, tombstone reactivation, and Figure 2
logic).

Workers coordinate through a shared RID pool: a delete or update *claims*
a committed RID so two transactions never fight over the same victim (they
still conflict on pages, latches, and key ranges, which is the contention
the experiments measure).  Every completed operation is appended to
``op_timeline`` so experiments can plot throughput over time and quiesce
stalls (E3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.errors import TransactionAborted
from repro.sim.kernel import Delay
from repro.workloads.pool import RidPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System


@dataclass
class WorkloadSpec:
    """Shape of one update workload."""

    #: operations per worker
    operations: int = 100
    #: number of concurrent worker processes
    workers: int = 2
    #: relative weights of the operation mix
    insert_weight: float = 1.0
    delete_weight: float = 1.0
    update_weight: float = 1.0
    #: mean think time between operations (exponential)
    think_time: float = 2.0
    #: fraction of transactions deliberately rolled back after their
    #: operation (exercises undo paths)
    rollback_fraction: float = 0.1
    #: key values are drawn from [0, key_space)
    key_space: int = 10_000
    #: "uniform" or "skewed" (approximate 80/20 power law)
    distribution: str = "uniform"
    #: fraction of updates that change the key columns (index-relevant)
    key_change_fraction: float = 0.8


@dataclass
class OpRecord:
    """One completed (or aborted) operation for the timeline."""

    time: float
    op: str
    worker: int
    outcome: str  # "committed", "rolledback", "aborted"
    #: simulated time the operation was issued (transaction begin);
    #: -1.0 for records from callers predating the field, so existing
    #: 4-positional construction stays valid
    issued: float = -1.0

    @property
    def latency(self) -> float:
        """Issue-to-completion latency (0.0 when issue time unknown)."""
        return self.time - self.issued if self.issued >= 0 else 0.0


class WorkloadDriver:
    """Spawns and coordinates update workers against one table."""

    def __init__(self, system: "System", table: "Table",
                 spec: Optional[WorkloadSpec] = None,
                 seed: int = 0) -> None:
        self.system = system
        self.table = table
        self.spec = spec or WorkloadSpec()
        self.seed = seed
        #: committed (rid, key) pairs available to delete/update
        self.pool = RidPool()
        self.op_timeline: list[OpRecord] = []
        self.ops_done = 0
        #: hook building the stored row for a ``(key, tag)`` pair.
        #: Experiments over wider tables (extra indexable columns) set a
        #: callable here; extra columns must be deterministic functions
        #: of the key so serial-equivalence replays stay exact.  The
        #: default two-column row keeps existing schedules byte-identical.
        self.row_factory = None

    def _row(self, key: int, tag: str) -> tuple:
        if self.row_factory is not None:
            return self.row_factory(key, tag)
        return (key, tag)

    # -- seeding -----------------------------------------------------------

    def preload(self, count: int):
        """Generator: populate the table with committed rows."""
        import random
        rng = random.Random(self.seed ^ 0x5EED)
        txn = self.system.txns.begin("preload")
        for index in range(count):
            key = self._draw_key(rng)
            rid = yield from self.table.insert(
                txn, self._row(key, f"row-{index}"))
            self.pool[rid] = key
        yield from txn.commit()

    # -- worker processes ---------------------------------------------------------

    def spawn_workers(self) -> list:
        self.started_at = self.system.sim.now
        return [self.system.spawn(self.worker(i), name=f"worker-{i}")
                for i in range(self.spec.workers)]

    def worker(self, worker_id: int):
        """Generator process: run ``spec.operations`` one-op transactions."""
        import random
        rng = random.Random((self.seed << 8) ^ worker_id)
        weights = [self.spec.insert_weight, self.spec.delete_weight,
                   self.spec.update_weight]
        for _ in range(self.spec.operations):
            if self.spec.think_time > 0:
                yield Delay(rng.expovariate(1.0 / self.spec.think_time))
            op = rng.choices(["insert", "delete", "update"],
                             weights=weights)[0]
            yield from self._one_transaction(rng, worker_id, op)
        return self.ops_done

    def _one_transaction(self, rng, worker_id: int, op: str):
        issued = self.system.sim.now
        txn = self.system.txns.begin(f"w{worker_id}")
        claimed: Optional[tuple[int, int]] = None
        try:
            if op == "insert":
                key = self._draw_key(rng)
                rid = yield from self.table.insert(
                    txn, self._row(key, f"w{worker_id}"))
                pending = (rid, key)
            elif op == "delete":
                claimed = self._claim(rng)
                if claimed is None:
                    op, pending = "noop", None
                else:
                    yield from self.table.delete(txn, claimed[0])
                    pending = None
            else:  # update
                claimed = self._claim(rng)
                if claimed is None:
                    op, pending = "noop", None
                else:
                    rid, _old_key = claimed
                    if rng.random() < self.spec.key_change_fraction:
                        new_key = self._draw_key(rng)
                    else:
                        new_key = claimed[1]
                    yield from self.table.update(
                        txn, rid, self._row(new_key, f"w{worker_id}u"))
                    pending = (rid, new_key)
            if op != "noop" and rng.random() < self.spec.rollback_fraction:
                yield from txn.rollback()
                self._unclaim(claimed)
                self._record(op, worker_id, "rolledback", issued=issued)
            else:
                yield from txn.commit()
                if op == "delete" and claimed is not None:
                    pass  # rid is gone for good
                elif claimed is not None and op == "update":
                    self.pool[claimed[0]] = pending[1]
                elif op == "insert" and pending is not None:
                    self.pool[pending[0]] = pending[1]
                self._record(op, worker_id, "committed", issued=issued)
        except TransactionAborted:
            yield from txn.rollback()
            self._unclaim(claimed)
            self._record(op, worker_id, "aborted", issued=issued)

    # -- helpers ---------------------------------------------------------------------

    def _claim(self, rng) -> Optional[tuple[int, int]]:
        if not self.pool:
            return None
        rid = self.pool.choice(rng)
        key = self.pool.pop(rid)
        return rid, key

    def _unclaim(self, claimed: Optional[tuple[int, int]]) -> None:
        if claimed is not None:
            self.pool[claimed[0]] = claimed[1]

    def _draw_key(self, rng) -> int:
        space = self.spec.key_space
        if self.spec.distribution == "skewed":
            # ~80/20: squash a uniform draw through a power curve.
            return int(space * (rng.random() ** 3))
        return rng.randrange(space)

    def _record(self, op: str, worker_id: int, outcome: str,
                issued: float = -1.0) -> None:
        self.op_timeline.append(OpRecord(
            time=self.system.sim.now, op=op, worker=worker_id,
            outcome=outcome, issued=issued))
        if outcome == "committed":
            self.ops_done += 1
        self.system.metrics.incr(f"workload.{outcome}")

    # -- analysis ---------------------------------------------------------------------------

    def throughput_series(self, bucket: float) -> list[tuple[float, int]]:
        """Committed operations per time bucket, starting when the
        workers were spawned (for E3's availability timeline)."""
        if not self.op_timeline:
            return []
        start = getattr(self, "started_at", 0.0)
        horizon = max(record.time for record in self.op_timeline) - start
        buckets = int(horizon / bucket) + 1
        series = [0] * buckets
        for record in self.op_timeline:
            if record.outcome == "committed":
                series[int((record.time - start) / bucket)] += 1
        return [(start + index * bucket, count)
                for index, count in enumerate(series)]

    def longest_stall(self) -> float:
        """Longest gap without any committed operation.

        Measured from the first attempted operation, so a build that
        blocks the workload from the start (the offline baseline) shows
        up as one long stall.
        """
        committed = sorted(record.time for record in self.op_timeline
                           if record.outcome == "committed")
        if not committed:
            return 0.0
        start = getattr(self, "started_at", committed[0])
        times = [start] + committed
        return max(b - a for a, b in zip(times, times[1:]))
