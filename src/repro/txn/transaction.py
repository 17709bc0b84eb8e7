"""Transactions: forward processing, commit, and WAL-driven rollback.

Transactions follow ARIES conventions:

* every change writes a log record chained through ``prev_lsn``;
* commit forces the log up to the commit record;
* rollback walks the chain backwards, invokes each record's undo handler,
  and writes a redo-only *compensation log record* (CLR) whose
  ``undo_next_lsn`` points past the undone record, so rollback never
  re-undoes work after a crash (section 2.2.3 footnote 4: "for a rollback
  action, it would be a compensation (redo-only) log record").

Undo handlers are generators registered in the WAL's operation registry
with signature ``undo(system, txn, record)``; they perform the physical
undo (latching and dirtying pages as needed) and return
``(clr_redo, clr_size, page, row)`` -- the CLR's redo half, its logged size
and heap row word (0: none) -- so the transaction can write the CLR and
stamp the page with its LSN.
"""

from __future__ import annotations

import enum
from typing import Any, Hashable, Optional, TYPE_CHECKING

from repro.errors import TransactionError
from repro.sim.kernel import Delay
from repro.wal.manager import LogManager
from repro.wal.records import RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class OrderedSet:
    """Insertion-ordered set (dict-backed) for lock names.

    ``release_all`` iterates :attr:`Transaction.held_locks`, and its
    drain order decides which waiter wakes first on each freed lock.  A
    plain ``set`` of string-bearing tuples iterates in hash-randomized
    order, which varies across interpreter invocations -- fine for a
    single deterministic run, but it makes a recorded schedule from
    :mod:`repro.schedsweep` non-replayable in a fresh process.
    Insertion order (acquisition order) is stable everywhere.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: dict[Hashable, None] = {}

    def add(self, item: Hashable) -> None:
        self._items[item] = None

    def discard(self, item: Hashable) -> None:
        self._items.pop(item, None)

    def clear(self) -> None:
        self._items.clear()

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OrderedSet({list(self._items)!r})"


class Transaction:
    """One transaction's identity, log chain, and lock set."""

    def __init__(self, system: "System", txn_id: int,
                 name: str = "") -> None:
        self.system = system
        self.txn_id = txn_id
        self.name = name or f"T{txn_id}"
        self.state = TxnState.ACTIVE
        self.first_lsn: Optional[int] = None
        self.last_lsn: Optional[int] = None
        self.held_locks: OrderedSet = OrderedSet()
        #: the lock name queued on and the event that wakes it
        self.waiting_on: Optional[Hashable] = None
        self.wake = None

    # -- logging ------------------------------------------------------------

    def log(self, kind: RecordKind, *, page_id: Any = None,
            redo: Optional[tuple[str, Any]] = None,
            undo: Optional[tuple[str, Any]] = None,
            undo_next_lsn: Optional[int] = None,
            info: Optional[dict] = None,
            writer: str = "txn",
            size: Optional[int] = None, row: int = 0) -> int:
        """Append a chained log record for this transaction; returns its
        LSN."""
        lsn = self.system.log.append(
            self.txn_id, kind, self.last_lsn, page_id, redo, undo,
            undo_next_lsn, info, writer, size, row)
        if self.first_lsn is None:
            self.first_lsn = lsn
        self.last_lsn = lsn
        return lsn

    # -- locking shorthands ----------------------------------------------------

    def lock(self, name: Hashable, mode: str, *, conditional: bool = False,
             instant: bool = False):
        """The lock manager's generator for this request: ``granted =
        yield from txn.lock(...)``."""
        return self.system.locks.lock(
            self, name, mode, conditional=conditional, instant=instant)

    # -- completion ----------------------------------------------------------

    def commit(self):
        """Generator: commit this transaction (force log, release locks)."""
        self._require_active()
        self.system.log.flush(self.log(RecordKind.COMMIT))
        if not self.system.sim.delayed(LogManager.FLUSH_COST):
            yield Delay(LogManager.FLUSH_COST)
        self.state = TxnState.COMMITTED
        self.system.locks.release_all(self)
        self.log(RecordKind.END)
        self.system.txns.finished(self)
        self.system.metrics.incr("txn.commits")

    def rollback(self):
        """Generator: undo every logged change, then release locks."""
        self._require_active()
        self.log(RecordKind.ABORT)
        yield from self._undo_chain()
        self.state = TxnState.ABORTED
        self.system.locks.release_all(self)
        self.log(RecordKind.END)
        self.system.txns.finished(self)
        self.system.metrics.incr("txn.rollbacks")

    def _undo_chain(self):
        registry = self.system.log.operations
        lsn = self.last_lsn
        while lsn is not None:
            record = self.system.log.get(lsn)
            if record.kind is RecordKind.COMPENSATION:
                lsn = record.undo_next_lsn
                continue
            if record.kind is not RecordKind.UPDATE \
                    or record.undo_op is None:
                lsn = record.prev_lsn
                continue
            handler = registry.undo(record.undo_op)
            clr_redo, clr_size, page, row = \
                yield from handler(self.system, self, record)
            clr_lsn = self.log(
                RecordKind.COMPENSATION,
                page_id=page.page_id if page is not None else None,
                redo=clr_redo,
                undo_next_lsn=record.prev_lsn,
                size=clr_size,
                row=row,
            )
            if page is not None:
                self.system.buffer.mark_dirty(page, clr_lsn)
            lsn = record.prev_lsn

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Txn {self.txn_id} {self.name} {self.state.value}>"


class TransactionManager:
    """Begins transactions and tracks the active set and Commit_LSN."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self._next_id = 0
        self.active: dict[int, Transaction] = {}

    def begin(self, name: str = "") -> Transaction:
        self._next_id += 1
        txn = Transaction(self.system, self._next_id, name=name)
        self.active[txn.txn_id] = txn
        self.system.metrics.incr("txn.begins")
        return txn

    def finished(self, txn: Transaction) -> None:
        self.active.pop(txn.txn_id, None)

    def commit_lsn(self) -> int:
        """Mohan's Commit_LSN [Moha90b]: all log records with LSN below
        this belong to terminated transactions, so any page whose Page-LSN
        is below it holds only committed data -- a lock-free commit test
        used by pseudo-delete cleanup (section 2.2.4) and unique-violation
        checks (section 2.2.3).
        """
        first_lsns = [txn.first_lsn for txn in self.active.values()
                      if txn.first_lsn is not None]
        if first_lsns:
            return min(first_lsns)
        return self.system.log.last_lsn + 1
