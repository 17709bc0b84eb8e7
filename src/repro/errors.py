"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Errors that correspond to conditions the
paper discusses explicitly (unique-key violation, deadlock victim, crash)
get their own subclasses because calling code branches on them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (bad RID, full page, ...)."""


class PageFullError(StorageError):
    """A record or key does not fit in the target page."""


class RecordNotFoundError(StorageError):
    """A RID does not refer to a live record."""


class WALError(ReproError):
    """The write-ahead log was used incorrectly."""


class TransactionError(ReproError):
    """A transaction-level protocol violation."""


class TransactionAborted(TransactionError):
    """Raised inside a transaction process when it has been aborted.

    The transaction manager rolls the transaction back via the WAL; the
    workload driver is expected to catch this and optionally retry.
    """


class DeadlockVictim(TransactionAborted):
    """This transaction was chosen as the victim of a deadlock."""


class UniqueViolationError(ReproError):
    """Inserting a key would violate a unique index's key-value uniqueness."""


class IndexBuildError(ReproError):
    """The index-build utility hit a non-recoverable condition.

    The paper's example: a unique index is requested but the table holds two
    committed records with the same key value (section 2.2.3).
    """


class SimulationError(ReproError):
    """The discrete-event kernel was driven incorrectly."""


class SystemCrash(ReproError):
    """Raised by crash injection to unwind every running process.

    After the simulator stops, the caller runs restart recovery
    (:mod:`repro.recovery`) against the surviving stable storage.
    """


class NodeDown(ReproError):
    """A cluster node failed while this process was running on it.

    Deliberately *not* a :class:`SystemCrash`: in a multi-node cluster the
    shared simulator must keep running the surviving nodes, so node death
    unwinds only the processes resident on the dead node.
    """


class SortRestartError(ReproError):
    """Restartable-sort checkpoint state is missing or inconsistent."""
