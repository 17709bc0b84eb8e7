"""Write-ahead log record types.

Section 1.1 (Recovery) of the paper: "The undo (respectively, redo) portion
of a log record provides information on how to undo (respectively, redo)
changes performed by the transaction.  A log record which contains both the
undo and the redo information is called an undo-redo log record.  Sometimes,
a log record may be written to contain only the redo information or only the
undo information."

All three flavours appear in the algorithms:

* undo-redo -- ordinary data and index changes (NSF IB key inserts, §2.2.3;
  SF side-file drain, §3.2.5);
* redo-only -- side-file appends (§3.1 assumptions) and compensation log
  records written during rollback;
* undo-only -- an NSF transaction whose key insert was rejected because IB
  already inserted the key (§2.1.1): nothing to redo, but on rollback the
  key must still be deleted.

A record's *operation* is a small string tag (e.g. ``"heap.insert"``)
resolved through :class:`OperationRegistry` to redo/undo callables supplied
by the owning resource manager.  This mirrors ARIES resource-manager
dispatch.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from repro.errors import WALError


class RecordKind(enum.Enum):
    """Coarse record category used by restart recovery."""

    UPDATE = "update"              # undoable/redoable change
    COMPENSATION = "clr"           # redo-only CLR with undo_next_lsn
    COMMIT = "commit"
    ABORT = "abort"
    END = "end"                    # transaction fully finished
    CHECKPOINT = "checkpoint"      # fuzzy checkpoint (txn table + DPT)
    UTILITY = "utility"            # index-build / sort progress records


class LogRecord:
    """One WAL record.

    ``redo`` and ``undo`` are operation payloads -- ``(op_name, args)``
    tuples -- or ``None``; their presence classifies the record as
    undo-redo, redo-only or undo-only exactly as in the paper.
    ``undo_next_lsn`` is the ARIES CLR back-pointer: during rollback it
    skips already-compensated records.

    The record *owns* its ``info`` dict: callers hand over one they just
    built and do not touch it again.  ``size`` -- approximate logged
    bytes, for log-volume experiments (E1) -- is computed once, here;
    payloads are never changed after the record is built.
    """

    __slots__ = ("lsn", "txn_id", "kind", "prev_lsn", "page_id", "redo",
                 "undo", "undo_next_lsn", "info", "size")

    def __init__(self, lsn: int, txn_id: Optional[int], kind: RecordKind,
                 prev_lsn: Optional[int] = None,
                 page_id: Optional[Any] = None,
                 redo: Optional[tuple[str, dict]] = None,
                 undo: Optional[tuple[str, dict]] = None,
                 undo_next_lsn: Optional[int] = None,
                 info: Optional[dict] = None) -> None:
        self.lsn = lsn
        self.txn_id = txn_id
        self.kind = kind
        self.prev_lsn = prev_lsn
        self.page_id = page_id
        self.redo = redo
        self.undo = undo
        self.undo_next_lsn = undo_next_lsn
        self.info = {} if info is None else info
        size = 32  # header: lsn, txn, kind, chaining
        if redo is not None:
            size += 8 + _payload_size(redo[1])
        if undo is not None:
            size += 8 + _payload_size(undo[1])
        self.size = size

    @property
    def is_undo_redo(self) -> bool:
        return self.redo is not None and self.undo is not None

    @property
    def is_redo_only(self) -> bool:
        return self.redo is not None and self.undo is None

    @property
    def is_undo_only(self) -> bool:
        return self.redo is None and self.undo is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LogRecord {self.lsn} txn={self.txn_id} "
                f"{self.kind.value} page={self.page_id}>")


def _payload_size(args: dict) -> int:
    total = 0
    for value in args.values():
        # exact types first: a payload is ints, strs, plain tuples and
        # RIDs; isinstance only decides for what is left (tuple and str
        # subclasses such as RID, floats, None)
        kind = type(value)
        if kind is int:
            total += 8
        elif kind is str:
            total += len(value)
        elif kind is tuple or kind is list \
                or isinstance(value, (list, tuple)):
            total += 8 * (len(value) or 1)
        elif isinstance(value, str):
            total += len(value)
        else:
            total += 8
    return total


RedoFn = Callable[..., None]
UndoFn = Callable[..., Optional[tuple[str, dict]]]


class OperationRegistry:
    """Maps operation tags to redo and undo callables.

    Resource managers (heap, B+-tree, side-file) register their operations
    at system construction.  Recovery and rollback dispatch through here.
    The undo callable returns the redo payload for the compensation log
    record describing what the undo physically did (ARIES: CLRs are
    redo-only).
    """

    def __init__(self) -> None:
        self._redo: dict[str, RedoFn] = {}
        self._undo: dict[str, UndoFn] = {}

    def register(self, op_name: str, redo: RedoFn,
                 undo: Optional[UndoFn] = None) -> None:
        if op_name in self._redo:
            raise WALError(f"operation {op_name!r} registered twice")
        self._redo[op_name] = redo
        if undo is not None:
            self._undo[op_name] = undo

    def redo(self, op_name: str) -> RedoFn:
        try:
            return self._redo[op_name]
        except KeyError:
            raise WALError(f"no redo handler for {op_name!r}") from None

    def undo(self, op_name: str) -> UndoFn:
        try:
            return self._undo[op_name]
        except KeyError:
            raise WALError(f"no undo handler for {op_name!r}") from None

    def knows(self, op_name: str) -> bool:
        return op_name in self._redo
