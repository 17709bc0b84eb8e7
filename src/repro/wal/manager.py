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

Nothing truncates the log, so every record stays resident for the whole
run: the manager keeps no record objects, only columns with the LSN as
the position (about 40 bytes a record, against 156 for a slotted object
and its LSN int).  ``append`` returns the LSN; ``get`` and ``scan``
build a :class:`~repro.wal.records.LogRecord` view per record read, and
restart reads the columns themselves (``txn_ids``, ``txn_kinds``,
``redo_runs``).
"""

from __future__ import annotations

from array import array
from itertools import compress, count, groupby
from operator import itemgetter
from struct import Struct
from typing import Any, Iterator, Optional

from repro.errors import WALError
from repro.faultinject.sites import fault_point
from repro.metrics import MetricsRegistry
from repro.storage.rid import SLOT_BITS, SLOT_MASK
from repro.wal.records import (HEADER_SIZE, KINDS, NO_INFO, LogRecord,
                               OperationRegistry, RecordKind, _payload_size)

#: The log is columns, the LSN the position.  A record is ``WIDTH``
#: unsigned 32-bit words of one ``array('I')`` -- txn id, prev LSN,
#: undo-next LSN (0 standing for ``None``: ids and LSNs start at 1),
#: logged size, a code and a heap row's word -- and two slots of one
#: list, its ``page_id`` then its ``payload``; the rare ``info`` lives in
#: a dict by LSN.  A word of 2**32 or more does not pack (``struct.error``).
WIDTH = 6
W_TXN, W_PREV, W_UNDO_NEXT, W_SIZE, W_CODE, W_ROW = range(WIDTH)
_RECORD = Struct(f"{WIDTH}I")
_WORDS = _RECORD.pack
#: a view straight from its fields, past the NamedTuple's Python-level
#: ``__new__``
_new_view = tuple.__new__

#: A code is ``(redo << OP_BITS | undo) << KIND_BITS | kind``: the kind's
#: position in ``KINDS`` and each half's operation code (0: no such
#: half), 29 bits, so a one-digit int that is cheap to build per append.
KIND_BITS, OP_BITS = 3, 13
KIND_MASK, OP_MASK = (1 << KIND_BITS) - 1, (1 << OP_BITS) - 1
UNDO_SHIFT, REDO_SHIFT = KIND_BITS, KIND_BITS + OP_BITS

#: A heap row keeps its ``H_*`` fields in the columns, and the view
#: rebuilds them: ``page_id`` names the table and the RID's page, the row
#: word is ``(visible << 2 | shape) << SLOT_BITS | slot``, and the payload
#: is what the shape names: ``values`` (``ROW_IMAGE``), ``(values,
#: old_values)`` (``ROW_IMAGES``) or, shape 0, the whole tuple.
ROW_IMAGE, ROW_IMAGES = 1, 2
ROW_VISIBLE_SHIFT = SLOT_BITS + 2


class LogManager:
    """Append-only WAL with explicit force and crash semantics."""

    #: Simulated time units for one log force (group-committed).
    FLUSH_COST = 1.0

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._words = array("I")
        self._refs: list = []
        self._info: dict[int, dict] = {}
        #: operation code -> name (code 0: no half) and back
        self._op_names: list[Optional[str]] = [None]
        self._op_codes: dict[str, int] = {}
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
               size: Optional[int] = None, row: int = 0) -> int:
        """Append one record; returns its LSN.

        ``writer`` tags who wrote the record ("txn", "ib", "recovery") for
        the per-writer log-volume counters used by experiment E1.
        ``redo`` and ``undo`` are ``(op_name, payload)`` halves over one
        shared payload, ``size`` the writer's closed-form logged bytes
        (see :class:`LogRecord`), ``row`` a heap row's word (``ROW_*``).
        """
        codes = self._op_codes
        if redo is None:
            redo_code = 0
            payload = None if undo is None else undo[1]
        else:
            redo_code = codes.get(redo[0]) or self._new_op(redo[0])
            payload = redo[1]
        undo_code = 0 if undo is None \
            else codes.get(undo[0]) or self._new_op(undo[0])
        if size is None:  # no halves to carry, or an ad-hoc payload
            size = HEADER_SIZE if redo is None and undo is None \
                else _payload_size(redo, undo)
        self._words.frombytes(_WORDS(
            txn_id or 0, prev_lsn or 0, undo_next_lsn or 0, size,
            (redo_code << OP_BITS | undo_code) << KIND_BITS | kind.code,
            row))
        refs = self._refs
        refs += (page_id, payload)
        lsn = len(refs) >> 1
        if info is not None:
            self._info[lsn] = info
        metrics = self.metrics
        if metrics.fault_injector is not None:
            fault_point(metrics, "wal.append")
        names = self._writer_counters.get(writer)
        if names is None:
            names = self._writer_counters[writer] = (
                f"wal.records.{writer}", f"wal.bytes.{writer}")
        counters = metrics.counters
        counters["wal.records"] += 1
        counters[names[0]] += 1
        counters["wal.bytes"] += size
        counters[names[1]] += size
        return lsn

    def _new_op(self, name: str) -> int:
        """The code of an operation this log has not logged before."""
        code = len(self._op_names)
        if code > OP_MASK:
            raise WALError(f"more than {OP_MASK} operation names")
        self._op_names.append(name)
        self._op_codes[name] = code
        return code

    def copy(self) -> "LogManager":
        """A column copy: the same records, stable prefix and master
        record, appended to apart from this log (media recovery restores
        on one and leaves the archive as it was).  The operation
        registry is shared: its handlers take the system as an argument."""
        twin = LogManager(self.metrics)
        twin._words = self._words[:]
        twin._refs = self._refs.copy()
        twin._info = self._info.copy()
        twin._op_names = self._op_names.copy()
        twin._op_codes = self._op_codes.copy()
        twin.flushed_lsn = self.flushed_lsn
        twin.operations = self.operations
        twin.master_checkpoint_lsn = self.master_checkpoint_lsn
        return twin

    # -- durability --------------------------------------------------------

    def flush(self, upto_lsn: Optional[int] = None) -> None:
        """Force the log to stable storage up to ``upto_lsn`` (default all).

        The *caller* charges the simulated time cost by yielding
        ``Delay(LogManager.FLUSH_COST)`` -- the manager itself is not a
        process.
        """
        last = self.last_lsn
        target = upto_lsn if upto_lsn is not None else last
        if target > last:
            raise WALError(f"cannot flush to future LSN {target}")
        if target > self.flushed_lsn:
            fault_point(self.metrics, "wal.force.before")
            self.flushed_lsn = target
            fault_point(self.metrics, "wal.force.after")
            self.metrics.incr("wal.forces")

    def crash(self) -> None:
        """Drop the volatile tail, as a system crash would: every column
        past the stable prefix."""
        kept = self.flushed_lsn
        del self._words[kept * WIDTH:]
        del self._refs[2 * kept:]
        for lsn in [lsn for lsn in self._info if lsn > kept]:
            del self._info[lsn]

    # -- reading -----------------------------------------------------------

    def get(self, lsn: int) -> LogRecord:
        if not 1 <= lsn <= self.last_lsn:
            raise WALError(f"LSN {lsn} out of range")
        return self._view(lsn)

    def scan(self, from_lsn: int = 1,
             to_lsn: Optional[int] = None) -> Iterator[LogRecord]:
        """Iterate records with ``from_lsn <= lsn <= to_lsn`` (stable+tail),
        a view each; the range is checked before the first record."""
        last = self.last_lsn
        end = to_lsn if to_lsn is not None else last
        if end > last:
            raise WALError(f"cannot scan to future LSN {end}")
        return map(self._view, range(max(from_lsn, 1), end + 1))

    def _view(self, lsn: int) -> LogRecord:
        txn_id, prev_lsn, undo_next_lsn, size, code, row = \
            _RECORD.unpack_from(self._words, (lsn - 1) * _RECORD.size)
        refs, names = self._refs, self._op_names
        page_id, payload = refs[2 * lsn - 2], refs[2 * lsn - 1]
        shape = row >> SLOT_BITS & 3
        if shape:  # a heap row: its H_* tuple, rebuilt from the columns
            values, old_values = \
                (payload, None) if shape == ROW_IMAGE else payload
            payload = (page_id.file, page_id.page_no << SLOT_BITS
                       | row & SLOT_MASK, values, old_values,
                       row >> ROW_VISIBLE_SHIFT, (), None)
        return _new_view(LogRecord, (
            lsn, txn_id or None, KINDS[code & KIND_MASK], prev_lsn or None,
            page_id, names[code >> REDO_SHIFT],
            names[code >> UNDO_SHIFT & OP_MASK], payload,
            undo_next_lsn or None, self._info.get(lsn, NO_INFO), size))

    @property
    def last_lsn(self) -> int:
        return len(self._refs) >> 1

    # -- columns (restart reads these, not views) ----------------------------

    def txn_ids(self) -> array:
        """The txn-id column, one word a record (0: no transaction)."""
        return self._words[W_TXN::WIDTH]

    def txn_kinds(self, from_lsn: int = 1
                  ) -> Iterator[tuple[int, int, RecordKind]]:
        """``(lsn, txn_id, kind)`` of every record from ``from_lsn`` on
        that a transaction wrote."""
        first = max(from_lsn, 1)
        start = (first - 1) * WIDTH
        txn_ids = self._words[start + W_TXN::WIDTH]
        records = zip(count(first), txn_ids,
                      self._words[start + W_CODE::WIDTH])
        return ((lsn, txn_id, KINDS[code & KIND_MASK])
                for lsn, txn_id, code in compress(records, txn_ids))

    def redo_runs(self, from_lsn: int, to_lsn: int) -> groupby:
        """Every record in ``from_lsn..to_lsn`` with a redo half as
        ``(page_id, redo_op, lsn, txn_id, row, payload)`` (``txn_id`` 0:
        none), zipped from the columns and grouped by one C-level
        ``groupby`` into ``(page_id, run)``: a run is one data page's
        consecutive records, or (``page_id`` ``None``) consecutive
        logical ones."""
        first = max(from_lsn, 1)
        start, end = (first - 1) * WIDTH, to_lsn * WIDTH
        refs, words, names = self._refs, self._words, self._op_names
        codes = words[start + W_CODE:end:WIDTH]
        redo_of = {code: names[code >> REDO_SHIFT] for code in set(codes)}
        ops = list(map(redo_of.__getitem__, codes))
        return groupby(compress(zip(
            refs[2 * first - 2:2 * to_lsn:2], ops, count(first),
            words[start + W_TXN:end:WIDTH], words[start + W_ROW:end:WIDTH],
            refs[2 * first - 1:2 * to_lsn:2]), ops), itemgetter(0))

    # -- checkpoints ---------------------------------------------------------

    def write_checkpoint(self, txn_table: dict, dirty_pages: dict,
                         utility_state: Optional[dict] = None,
                         utility_states: Optional[dict] = None) -> int:
        """Write a fuzzy checkpoint, update the master record and return
        its LSN (:meth:`repro.system.System.checkpoint` is its one
        caller).

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
        lsn = self.append(
            txn_id=None,
            kind=RecordKind.CHECKPOINT,
            info=info,
            writer="system",
        )
        self.flush(lsn)
        # The checkpoint record is stable but the master record still
        # points at the previous checkpoint -- a crash here must recover
        # from the *old* checkpoint and ignore the new one.
        fault_point(self.metrics, "wal.checkpoint.before_master")
        self.master_checkpoint_lsn = lsn
        tracer = getattr(self.metrics, "tracer", None)
        if tracer is not None:
            tracer.instant("wal.checkpoint", lsn=lsn,
                           phase=(utility_state or {}).get("phase"))
        return lsn

    def latest_checkpoint(self) -> Optional[LogRecord]:
        if self.master_checkpoint_lsn is None:
            return None
        if self.master_checkpoint_lsn > self.last_lsn:
            return None
        return self.get(self.master_checkpoint_lsn)
