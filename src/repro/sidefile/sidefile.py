"""The side-file: SF's append-only change table.

Section 3.1: "A side-file is an append-only (sequential) table in which
the transactions insert tuples of the form <operation, key>, where
operation is insert or delete.  Transactions append entries without doing
any locking of the appended entries" and "transactions write redo-only log
records for the appends that they make to the side-file".

Appends are therefore:

* unlocked -- concurrent transactions interleave freely (each append is
  one atomic step in the simulator);
* redo-only logged -- a crash replays lost appends from the WAL; a
  transaction *rollback does not remove its appends* (that is the point of
  redo-only), instead rollback appends a *compensating entry* per
  Figure 2's "make entry in SF for index under construction".

IB drains the file sequentially and checkpoints its drain position
(section 3.2.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, TYPE_CHECKING

from repro.faultinject.sites import fault_point
from repro.sim.kernel import Delay
from repro.wal.records import HEADER_SIZE, OP_SIZE, RecordKind, value_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System
    from repro.txn.transaction import Transaction

INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class SideFileEntry:
    """One logged change destined for the index under construction."""

    operation: str          # INSERT or DELETE
    key_value: tuple
    rid: int
    lsn: int                # LSN of the redo-only append record
    txn_id: Optional[int]


class SideFile:
    """Append-only change table for one index build."""

    #: entries per "page" for durability accounting: a crash keeps the
    #: forced prefix, loses the volatile tail (restored by WAL redo)
    def __init__(self, system: "System", index_name: str) -> None:
        self.system = system
        self.index_name = index_name
        self.entries: list[SideFileEntry] = []
        self.durable_length = 0
        #: how far the drain (section 3.2.5) has applied entries; kept by
        #: the drainer so observers (trace gauges) can read the backlog
        #: ``len(entries) - drain_position`` without touching the builder
        self.drain_position = 0
        #: LSNs of every present entry; keeps :meth:`redo_append`'s
        #: already-present test O(1) (the linear scan made restart redo
        #: quadratic in side-file length)
        self._lsn_set: set[int] = set()

    # -- appending (generator) ----------------------------------------------

    def append_sync(self, txn: "Transaction", operation: str, key_value,
                    rid: int) -> SideFileEntry:
        """Append one entry with its redo-only log record.

        Synchronous (no yields): callers invoke it atomically with the
        visibility decision, under the data-page latch.  "Transactions
        append entries without doing any locking of the appended entries"
        (section 3.1).
        """
        payload, size = self._log_payload(operation, key_value, rid)
        lsn = txn.log(RecordKind.UPDATE,
                      redo=("sidefile.append", payload), size=size)
        entry = self._add(payload, lsn, txn.txn_id)
        fault_point(self.system.metrics, "sidefile.append")
        self.system.metrics.incr("sidefile.appends")
        return entry

    def _log_payload(self, operation: str, key_value,
                     rid: int) -> tuple[tuple, int]:
        """One append's ``SF_*`` payload and its logged size (redo-only:
        header, tag, index name, operation, key value, RID)."""
        return ((self.index_name, operation, key_value, rid),
                HEADER_SIZE + OP_SIZE + len(self.index_name)
                + len(operation) + value_size(key_value) + 16)

    def _add(self, payload: tuple, lsn: int,
             txn_id: Optional[int]) -> SideFileEntry:
        """Append the entry a logged payload describes."""
        entry = SideFileEntry(payload[SF_OPERATION], payload[SF_KEY],
                              payload[SF_RID], lsn, txn_id)
        self.entries.append(entry)
        self._lsn_set.add(lsn)
        return entry

    def append(self, txn: "Transaction", operation: str, key_value,
               rid: int):
        """Generator variant of :meth:`append_sync` charging CPU cost."""
        entry = self.append_sync(txn, operation, key_value, rid)
        cost = self.system.config.record_op_cost * 0.5
        if not self.system.sim.delayed(cost):
            yield Delay(cost)
        return entry

    def append_during_undo(self, txn: "Transaction", operation: str,
                           key_value, rid: int):
        """Generator-free variant used inside undo handlers (the CLR the
        caller writes covers durability); still counted separately."""
        payload, size = self._log_payload(operation, key_value, rid)
        lsn = txn.system.log.append(
            txn.txn_id, RecordKind.UPDATE,
            prev_lsn=None,  # CLR chain is maintained by the caller
            redo=("sidefile.append", payload), size=size,
            info={"during": "undo"})
        self._add(payload, lsn, txn.txn_id)
        self.system.metrics.incr("sidefile.appends")
        self.system.metrics.incr("sidefile.appends.during_undo")

    # -- durability ------------------------------------------------------------

    def force(self) -> None:
        """Make every current entry crash-survivable (IB drain checkpoint).

        WAL rule: the redo-only append records must reach stable storage
        *before* the durable prefix is advanced.  Advancing first (the
        original order) left a window -- a crash inside the log flush
        produced "durable" entries whose append records never made the
        log, so a restarted drain consumed entries that redo could not
        re-create and the post-crash audit diverged.

        The whole log, not just up to the last append: a write logs its
        side-file append just before its heap record, so a flush that
        stopped at the append could keep it and lose the heap record --
        the loser then has nothing to undo, writes no compensation, and
        the drain applies an orphan entry (a live row's key deleted).
        """
        fault_point(self.system.metrics, "sidefile.force")
        length = len(self.entries)
        if length:
            self.system.log.flush()
        self.durable_length = length

    def crash(self) -> None:
        del self.entries[self.durable_length:]
        self._lsn_set = {entry.lsn for entry in self.entries}

    def redo_append(self, lsn: int, txn_id: Optional[int],
                    payload: tuple) -> None:
        """Replay one append from the WAL if it was lost in the crash."""
        if lsn in self._lsn_set:
            return  # already present in the stable prefix
        self._add(payload, lsn, txn_id)
        self.system.metrics.incr("recovery.sidefile_redos")

    # -- reading -----------------------------------------------------------------

    def read_from(self, position: int) -> Iterator[tuple[int, SideFileEntry]]:
        """Entries starting at ``position`` with their positions."""
        for index in range(position, len(self.entries)):
            yield index, self.entries[index]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SideFile {self.index_name} n={len(self.entries)} "
                f"durable={self.durable_length}>")


def register_sidefile_operations(system: "System") -> None:
    """Install the WAL redo handler for side-file appends."""
    ops = system.log.operations
    if ops.knows("sidefile.append"):
        return
    ops.register("sidefile.append", redo=_redo_sidefile_append)


#: Field positions of a ``sidefile.append`` payload: the index under
#: construction, then the entry -- operation, key value, RID.
SF_INDEX, SF_OPERATION, SF_KEY, SF_RID = range(4)


def _redo_sidefile_append(system: "System", lsn: int, txn_id, _page_id,
                          payload):
    sidefile = system.sidefiles.get(payload[SF_INDEX])
    if sidefile is not None:
        sidefile.redo_append(lsn, txn_id, payload)
    return
    yield  # pragma: no cover - generator shape
