"""The simulated DBMS: one object wiring every substrate together.

A :class:`System` owns the discrete-event simulator, stable disk, WAL,
buffer pool, lock manager, transaction manager, tables, indexes, and any
in-progress index builds.  Experiments construct a System, populate a
table, spawn transaction processes and an index-builder process, run the
simulator, and read the metrics registry.

Crash/restart: :meth:`crash` throws away volatile state (buffer pool, lock
tables, unflushed log tail, in-memory index trees not yet forced) exactly
as a power failure would; :func:`repro.recovery.restart.restart` then
rebuilds a consistent state on a *new* System sharing the same Disk and
stable log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import StorageError
from repro.metrics import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.semaphore import Semaphore
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.table import Table
from repro.txn.locks import LockManager
from repro.txn.transaction import TransactionManager
from repro.wal.manager import LogManager


@dataclass
class SystemConfig:
    """Tunable sizes and simulated costs.

    Defaults keep trees shallow and runs fast; experiments shrink page
    capacities to force multi-level trees and multi-run sorts at laptop
    scale (the DESIGN.md substitution for the paper's petabyte tables).
    """

    #: records per data page
    page_capacity: int = 16
    #: buffer pool frames
    buffer_frames: int = 1024
    #: key entries per B+-tree leaf page
    leaf_capacity: int = 16
    #: child pointers per B+-tree branch page
    branch_capacity: int = 16
    #: simulated time for one record modify (CPU)
    record_op_cost: float = 0.5
    #: simulated time for one index key operation (CPU)
    key_op_cost: float = 0.5
    #: simulated time per key appended by the bottom-up bulk loader --
    #: cheaper than key_op_cost because there is no traversal, latching or
    #: per-key logging (sections 2.3.1 and 4)
    bulk_load_key_cost: float = 0.05
    #: simulated time charged per B+-tree page visited during a traversal
    tree_visit_cost: float = 0.1
    #: simulated time per page visited by an IB side-file drain descent.
    #: Defaults to 0 (descents ride the key_op_cost charge), keeping the
    #: baseline calibration where drain batching is purely a wall-clock
    #: optimization; set to ``tree_visit_cost`` to charge drain descents
    #: like query descents, the regime EXPERIMENTS.md E19 measures (the
    #: catch-up window then shrinks as ``drain_batch`` amortizes them).
    drain_visit_cost: float = 0.0
    #: pages fetched per sequential prefetch I/O during IB's scan (§2.2.2)
    prefetch_pages: int = 8
    #: replacement-selection tournament-tree size (number of leaf slots)
    sort_workspace: int = 64
    #: maximum sorted runs merged in one pass
    merge_fanin: int = 8
    #: simulated time per key moved by the shard scan's per-shard merge
    #: workers (:mod:`repro.core.shard_merge`); serial builders fold
    #: merge cost into ``bulk_load_key_cost`` via the pipelined final merge
    merge_key_cost: float = 0.02
    #: IB admission control: maximum builder work items (pages scanned,
    #: keys loaded/inserted, side-file entries drained) per simulated
    #: time unit, shared across all of a build's processes (PSF shard
    #: workers included).  ``None`` disables the throttle entirely --
    #: the token bucket is never constructed and the schedule is
    #: byte-identical to a pre-throttle build.
    build_rate_limit: Optional[float] = None
    #: shared-disk model: number of concurrent data-page I/Os the disk
    #: serves; further I/Os queue FIFO.  ``None`` (default) keeps the
    #: unlimited-bandwidth model where every I/O only delays its own
    #: process -- byte-identical schedules to earlier builds.  The WAL
    #: is modeled as its own device and is never gated by this.
    disk_channels: Optional[int] = None


class System:
    """A complete simulated DBMS instance."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 seed: int = 0, *,
                 disk: Optional[Disk] = None,
                 log: Optional[LogManager] = None,
                 sim: Optional[Simulator] = None) -> None:
        self.config = config or SystemConfig()
        self.metrics = MetricsRegistry()
        self.rng = random.Random(seed)
        # A cluster (repro.cluster) runs several systems on one shared
        # clock; each standalone system otherwise owns its simulator.
        self.sim = sim if sim is not None else Simulator()
        self.disk = disk if disk is not None else Disk(metrics=self.metrics)
        # A disk carried over from a crashed system keeps its own metrics.
        if disk is not None:
            self.disk.metrics = self.metrics
        self.log = log if log is not None else LogManager(metrics=self.metrics)
        if log is not None:
            self.log.metrics = self.metrics
        channels = self.config.disk_channels
        self.io_channels = Semaphore("disk", channels,
                                     metrics=self.metrics) \
            if channels else None
        self.buffer = BufferPool(self.disk, self.log,
                                 capacity=self.config.buffer_frames,
                                 metrics=self.metrics,
                                 sim=self.sim, io=self.io_channels)
        self.locks = LockManager(self.sim, metrics=self.metrics)
        self.txns = TransactionManager(self)
        self.tables: dict[str, Table] = {}
        #: index name -> repro.core.descriptor.IndexDescriptor
        self.indexes: dict[str, object] = {}
        #: active index builds: table name -> list of BuildContext
        self.builds: dict[str, list] = {}
        #: side-files by index name
        self.sidefiles: dict[str, object] = {}
        #: sort-run stores by utility name; survive restart like side-files
        self.run_stores: dict[str, object] = {}
        #: sealed-run manifests by index name: each completed SF-like
        #: build parks its fully merged, forced final run in a
        #: ``sealed:{index}`` store so :meth:`rebuild_index` can rebuild
        #: the tree without rescanning the table; survives restart like
        #: the run stores themselves
        self.sealed_runs: dict[str, dict] = {}
        #: the build registry: the latest utility-checkpoint payload per
        #: table with an unfinished build.  :meth:`checkpoint` keeps it
        #: and records it in every checkpoint, so concurrent builds never
        #: clobber each other's resume state; restart() reloads it.
        self.utility_states: dict[str, dict] = {}
        #: the system-wide IB admission-control bucket (lazily built by
        #: :meth:`build_bucket`): ``build_rate_limit`` bounds the
        #: *aggregate* utility rate, however many builds share it
        self._build_bucket = None
        #: components with volatile state beyond the standard set register
        #: a callable here; :meth:`crash` invokes each one
        self.crash_hooks: list = []
        #: crash() is deliberately idempotent (restart() calls it again);
        #: the trace instant must still be recorded exactly once
        self._crash_traced = False

    # -- catalog -------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str],
                     page_capacity: Optional[int] = None) -> Table:
        if name in self.tables:
            raise StorageError(f"table {name!r} already exists")
        table = Table(self, name, columns, page_capacity=page_capacity)
        self.tables[name] = table
        return table

    def rebuild_index(self, name: str, options=None):
        """Prepare a fast drop + rebuild of an existing index.

        Reuses the sealed sorted runs parked by the index's original
        SF-like build -- no table scan, no re-sort, zero data-page reads
        (experiment E25).  Returns a
        :class:`repro.core.sf.RebuildIndexBuilder`; spawn its
        ``run()`` to perform the rebuild online (concurrent updates
        route through a side-file exactly as during an SF build).
        """
        from repro.core.sf import rebuild_builder
        descriptor = self.indexes.get(name)
        if descriptor is None:
            raise StorageError(f"no index named {name!r}")
        manifest = self.sealed_runs.get(name)
        if manifest is None:
            raise StorageError(
                f"index {name!r} has no sealed sorted runs to rebuild "
                "from (only completed SF-like builds seal their final "
                "run; NSF- or offline-built indexes must be rebuilt "
                "with a fresh full build)")
        if self.builds.get(descriptor.table.name) is not None:
            raise StorageError(
                f"table {descriptor.table.name!r} already has an active "
                "index build; rebuild after it completes")
        return rebuild_builder(self, descriptor, options)

    # -- IB admission control -----------------------------------------------

    def build_bucket(self, rate: float):
        """The shared token bucket charging all index-build work.

        One bucket per System: K concurrent builds each debiting it keep
        the *total* utility rate at ``rate`` -- K per-build buckets would
        silently admit K times the configured limit.  Lazily constructed
        on the first throttled build, so unthrottled systems never pay
        for it (and their schedules stay byte-identical); a restart gets
        a fresh System and hence a fresh, full bucket.
        """
        if self._build_bucket is None:
            from repro.core.throttle import TokenBucket
            self._build_bucket = TokenBucket(self.sim, rate)
        return self._build_bucket

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self, utility_state: Optional[dict] = None):
        """Write THE fuzzy checkpoint; every writer calls this one.

        It records the active transactions, the dirty page table, the
        given build payload (sections 2.2.3, 3.2.4, 5) and the build
        registry.  A payload in a live phase becomes its table's
        registry entry, a ``done`` one removes it, so the registry
        holds exactly the builds a restart must resume.
        """
        if utility_state:
            table = utility_state["table"]
            if utility_state.get("phase") == "done":
                self.utility_states.pop(table, None)
            else:
                self.utility_states[table] = utility_state
        txn_table = {txn_id: {"first_lsn": txn.first_lsn,
                              "last_lsn": txn.last_lsn,
                              "committed": False}
                     for txn_id, txn in self.txns.active.items()}
        return self.log.write_checkpoint(txn_table, dict(self.buffer.dirty),
                                         utility_state, self.utility_states)

    # -- convenience ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulator (delegates to :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    def spawn(self, body, name: str = "proc"):
        return self.sim.spawn(body, name=name)

    def now(self) -> float:
        return self.sim.now

    # -- crash modelling -----------------------------------------------------------

    def crash(self) -> tuple[Disk, LogManager]:
        """Simulate a system failure.

        Volatile state (buffer frames, latches, locks, live transactions,
        index trees not yet persisted) is lost.  Returns the surviving
        stable state ``(disk, log)`` for :func:`repro.recovery.restart.restart`.
        """
        tracer = self.metrics.tracer
        if tracer is not None and not self._crash_traced:
            self._crash_traced = True
            tracer.instant("system.crash",
                           flushed_lsn=self.log.flushed_lsn,
                           lost_records=self.log.last_lsn
                           - self.log.flushed_lsn)
        self.buffer.crash()
        self.log.crash()
        for descriptor in self.indexes.values():
            tree = getattr(descriptor, "tree", None)
            if tree is not None:
                tree.crash()
        for sidefile in self.sidefiles.values():
            sidefile.crash()
        for store in self.run_stores.values():
            store.crash()
        for hook in self.crash_hooks:
            hook()
        self.metrics.incr("system.crashes")
        return self.disk, self.log

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<System tables={list(self.tables)} "
                f"indexes={list(self.indexes)} t={self.sim.now}>")
