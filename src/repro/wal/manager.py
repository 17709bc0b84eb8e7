"""The write-ahead log manager.

Models an append-only log with a *stable prefix* and a *volatile tail*:
``flush`` (force) makes everything up to a given LSN survive a crash;
records beyond :attr:`LogManager.flushed_lsn` are lost when the system
crashes.  Restart recovery (:mod:`repro.recovery`) replays the stable
prefix.

LSNs are dense positive integers, so tests can reason about exact chains.
The manager also keeps per-transaction ``prev_lsn`` chaining on behalf of
callers and counts records/bytes in the metrics registry -- experiment E1
compares the log volume written by NSF's and SF's index builders.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import WALError
from repro.faultinject.sites import fault_point
from repro.metrics import MetricsRegistry
from repro.wal.records import LogRecord, OperationRegistry, RecordKind


class LogManager:
    """Append-only WAL with explicit force and crash semantics."""

    #: Simulated time units for one log force (group-committed).
    FLUSH_COST = 1.0

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.records: list[LogRecord] = []
        self.flushed_lsn = 0
        self.operations = OperationRegistry()
        #: LSN of the most recent complete checkpoint record, if any.
        #: Models the "master record" pointing at the latest checkpoint.
        self.master_checkpoint_lsn: Optional[int] = None
        #: writer tag -> its (records, bytes) counter names
        self._writer_counters: dict[str, tuple[str, str]] = {}

    # -- appending ---------------------------------------------------------

    def append(self, txn_id: Optional[int], kind: RecordKind,
               prev_lsn: Optional[int] = None,
               page_id: Any = None,
               redo: Optional[tuple[str, Any]] = None,
               undo: Optional[tuple[str, Any]] = None,
               undo_next_lsn: Optional[int] = None,
               info: Optional[dict] = None,
               writer: str = "txn",
               size: Optional[int] = None) -> LogRecord:
        """Append one record; returns it with its LSN assigned.

        ``writer`` tags who wrote the record ("txn", "ib", "recovery") for
        the per-writer log-volume counters used by experiment E1.
        ``redo`` and ``undo`` are ``(op_name, payload)`` halves over one
        shared payload, ``size`` the writer's closed-form logged bytes
        (see :class:`LogRecord`).
        """
        records = self.records
        record = LogRecord(len(records) + 1, txn_id, kind, prev_lsn,
                           page_id, redo, undo, undo_next_lsn, info, size)
        records.append(record)
        metrics = self.metrics
        if metrics.fault_injector is not None:
            fault_point(metrics, "wal.append")
        names = self._writer_counters.get(writer)
        if names is None:
            names = self._writer_counters[writer] = (
                f"wal.records.{writer}", f"wal.bytes.{writer}")
        size = record.size
        counters = metrics.counters
        counters["wal.records"] += 1
        counters[names[0]] += 1
        counters["wal.bytes"] += size
        counters[names[1]] += size
        return record

    # -- durability --------------------------------------------------------

    def flush(self, upto_lsn: Optional[int] = None) -> None:
        """Force the log to stable storage up to ``upto_lsn`` (default all).

        The *caller* charges the simulated time cost by yielding
        ``Delay(LogManager.FLUSH_COST)`` -- the manager itself is not a
        process.
        """
        target = upto_lsn if upto_lsn is not None else len(self.records)
        if target > len(self.records):
            raise WALError(f"cannot flush to future LSN {target}")
        if target > self.flushed_lsn:
            fault_point(self.metrics, "wal.force.before")
            self.flushed_lsn = target
            fault_point(self.metrics, "wal.force.after")
            self.metrics.incr("wal.forces")

    def crash(self) -> None:
        """Drop the volatile tail, as a system crash would."""
        del self.records[self.flushed_lsn:]

    # -- reading -----------------------------------------------------------

    def get(self, lsn: int) -> LogRecord:
        if not 1 <= lsn <= len(self.records):
            raise WALError(f"LSN {lsn} out of range")
        return self.records[lsn - 1]

    def scan(self, from_lsn: int = 1,
             to_lsn: Optional[int] = None) -> Iterator[LogRecord]:
        """Iterate records with ``from_lsn <= lsn <= to_lsn`` (stable+tail)."""
        end = to_lsn if to_lsn is not None else len(self.records)
        for lsn in range(max(from_lsn, 1), end + 1):
            yield self.records[lsn - 1]

    @property
    def last_lsn(self) -> int:
        return len(self.records)

    # -- checkpoints ---------------------------------------------------------

    def write_checkpoint(self, txn_table: dict, dirty_pages: dict,
                         utility_state: Optional[dict] = None,
                         utility_states: Optional[dict] = None) -> LogRecord:
        """Write a fuzzy checkpoint and update the master record
        (:meth:`repro.system.System.checkpoint` is its one caller).

        ``utility_state`` carries index-build / sort progress (sections
        2.2.3, 3.2.4, 5): the highest key inserted, sorted-run manifests,
        merge counters, side-file position -- whatever the interrupted
        utility needs to resume.  ``utility_states`` (table name ->
        payload) is the registry of every unfinished build.
        """
        info = {
            "txn_table": dict(txn_table),
            "dirty_pages": dict(dirty_pages),
            "utility_state": dict(utility_state or {}),
            "utility_states": {name: dict(state) for name, state
                               in (utility_states or {}).items()},
        }
        record = self.append(
            txn_id=None,
            kind=RecordKind.CHECKPOINT,
            info=info,
            writer="system",
        )
        self.flush(record.lsn)
        # The checkpoint record is stable but the master record still
        # points at the previous checkpoint -- a crash here must recover
        # from the *old* checkpoint and ignore the new one.
        fault_point(self.metrics, "wal.checkpoint.before_master")
        self.master_checkpoint_lsn = record.lsn
        tracer = getattr(self.metrics, "tracer", None)
        if tracer is not None:
            tracer.instant("wal.checkpoint", lsn=record.lsn,
                           phase=(utility_state or {}).get("phase"))
        return record

    def latest_checkpoint(self) -> Optional[LogRecord]:
        if self.master_checkpoint_lsn is None:
            return None
        if self.master_checkpoint_lsn > len(self.records):
            return None
        return self.get(self.master_checkpoint_lsn)
