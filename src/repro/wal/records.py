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
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Optional

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


#: every kind in code order: a packed record word holds
#: ``KINDS.index(kind)``, which ``kind.code`` answers without hashing the
#: enum (a Python-level ``__hash__``) on every append
KINDS = tuple(RecordKind)
for _code, _kind in enumerate(KINDS):
    _kind.code = _code


class LogRecord(NamedTuple):
    """A read view of one WAL record.

    The log keeps no record objects: :class:`~repro.wal.LogManager`
    holds its records as columns, and ``get`` / ``scan`` build one of
    these per record read.

    A record names up to two operations, ``redo_op`` and ``undo_op``
    (their presence classifies it as undo-redo, redo-only or undo-only
    exactly as in the paper), and carries **one** ``payload`` that both
    halves read.  A registered operation's payload is a flat tuple with
    its fields at the positions its resource manager declares next to
    ``ops.register`` (``H_*`` in :mod:`repro.storage.table`, ``IX_*`` in
    :mod:`repro.btree.tree`, ...), bookkeeping included (count of visible
    indexes, origin of a replicated write): such a record needs no
    ``info``, and one written without reads the read-only
    :data:`NO_INFO`.  ``undo_next_lsn`` is the ARIES CLR back-pointer:
    during rollback it skips already-compensated records.

    ``size`` -- approximate logged bytes, for log-volume experiments
    (E1) -- is stated by the writer, who knows it in closed form: a
    header and, per half, the operation tag plus the fields that half
    would carry on its own.  Only an ad-hoc mapping payload (tests,
    utilities) is measured by the log.  A payload never changes once
    logged.
    """

    lsn: int
    txn_id: Optional[int]
    kind: RecordKind
    prev_lsn: Optional[int]
    page_id: Any
    redo_op: Optional[str]
    undo_op: Optional[str]
    payload: Any
    undo_next_lsn: Optional[int]
    info: Mapping
    size: int

    @property
    def redo(self) -> Optional[tuple[str, Any]]:
        """``(op_name, payload)`` of the redo half, or ``None``."""
        return None if self.redo_op is None \
            else (self.redo_op, self.payload)

    @property
    def undo(self) -> Optional[tuple[str, Any]]:
        """``(op_name, payload)`` of the undo half, or ``None``."""
        return None if self.undo_op is None \
            else (self.undo_op, self.payload)

    @property
    def is_undo_redo(self) -> bool:
        return self.redo_op is not None and self.undo_op is not None

    @property
    def is_redo_only(self) -> bool:
        return self.redo_op is not None and self.undo_op is None

    @property
    def is_undo_only(self) -> bool:
        return self.redo_op is None and self.undo_op is not None


#: ``info`` of every record written without one; a write to it raises
NO_INFO: Mapping = MappingProxyType({})

#: logged bytes of the record header (lsn, txn, kind, chaining) and of
#: one half's operation tag
HEADER_SIZE = 32
OP_SIZE = 8


def value_size(value: Any) -> int:
    """Logged bytes of one payload field: a key value, RID or list by
    its length, a string by its characters, anything else one word."""
    if isinstance(value, (tuple, list)):
        return 8 * (len(value) or 1)
    if isinstance(value, str):
        return len(value)
    return 8


def _payload_size(redo: Optional[tuple[str, Mapping]],
                  undo: Optional[tuple[str, Mapping]]) -> int:
    """Size of a record whose writer gave none: an ad-hoc mapping
    payload, shared by both halves and walked once for each."""
    if redo is not None and undo is not None and redo[1] != undo[1]:
        raise WALError("the redo and undo halves share one payload")
    return HEADER_SIZE + sum(
        OP_SIZE + sum(map(value_size, half[1].values()))
        for half in (redo, undo) if half is not None)


RedoFn = Callable[..., None]
UndoFn = Callable[..., tuple[tuple[str, tuple], int, Any, int]]


class OperationRegistry:
    """Maps operation tags to redo and undo callables.

    Resource managers (heap, B+-tree, side-file) register their operations
    at system construction.  Recovery and rollback dispatch through here.
    Redo reads the log's columns and hands the redo callable a logical
    record's fields, ``(system, lsn, txn_id, page_id, payload)`` (a data
    page's run of heap records goes to
    :func:`repro.storage.table.redo_page_run` instead); rollback hands
    the undo callable ``(system, txn, record)``, a :class:`LogRecord`
    view.  Both are generators.  The undo callable returns the redo
    half, logged size and heap row word of the compensation log record
    describing what the undo physically did (ARIES: CLRs are redo-only),
    plus the page to stamp with it.
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
