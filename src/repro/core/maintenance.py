"""Transaction-side index maintenance during online index builds.

This module is the transliteration of the paper's Figure 1 (index updates
by transactions during forward processing in SF) and Figure 2 (during
rollback), generalised to also cover NSF and completed indexes:

* a **completed** index (state AVAILABLE) is always visible and is updated
  directly with normal-processing semantics (next-key locking on physical
  deletes, etc.);
* an index being built by **NSF** is visible from descriptor creation
  onward; transactions insert and delete its keys directly in the tree
  with the tombstone/duplicate rules of section 2.2.3
  (``during_build=True``);
* an index being built by **SF** is visible to an operation iff
  ``Target-RID < Current-RID`` (the builder's scan position); visible
  operations append ``<operation, key>`` to the side-file, invisible ones
  ignore the index completely (Figure 1);
* on **rollback**, the count of visible indexes recorded in the data-page
  log record is compared with the current count; for indexes that became
  visible in between, the undo appends a compensating side-file entry
  (build still running) or performs a logical tree undo (build finished)
  -- Figure 2, including the "difference greater than one" scenario of
  section 3.2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.btree.tree import index_payload
from repro.core.descriptor import IndexState
from repro.sidefile import DELETE, INSERT
from repro.storage.rid import RID, rid_page
from repro.storage.table import H_SF_ROUTED, H_VISIBLE
from repro.wal.records import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.descriptor import IndexDescriptor
    from repro.storage.page import Record
    from repro.storage.table import Table
    from repro.system import System
    from repro.txn.transaction import Transaction

NSF_MODE = "nsf"
SF_MODE = "sf"
PSF_MODE = "psf"
MULTI_MODE = "multi"
OFFLINE_MODE = "offline"
REBUILD_MODE = "rebuild"
IOT_MODE = "iot"

#: Modes that route maintenance through a side-file: one builder
#: (:mod:`repro.core.sf`) and a row of data each.  A sharded scan
#: (PSF's default) swaps the single Current-RID for a frontier *vector*;
#: MULTI builds K indexes from the one scan (section 6.2), each with its
#: own side-file and flag flip; the Figure 1 / Figure 2 logic is
#: otherwise identical.  REBUILD reconstructs a dropped tree from
#: sealed sorted runs without rescanning the table; while the
#: new tree loads, concurrent maintenance routes through a side-file
#: exactly as in SF with Current-RID at infinity (every record counts as
#: "scanned" -- the sealed runs already cover the whole table).  IOT
#: builds over an index-organized table, whose scan position is the
#: current primary key (section 6.2; :mod:`repro.core.iot`).
SF_LIKE_MODES = (SF_MODE, PSF_MODE, MULTI_MODE, REBUILD_MODE, IOT_MODE)


@dataclass
class OpSnapshot:
    """One record operation's visibility decision, taken under the latch.

    ``count`` is logged in the data-page log record (section 3.1);
    ``direct`` lists the tree updates to apply once the latch is dropped;
    ``sf_routed`` names the indexes whose maintenance went to a side-file
    (also logged -- rollback needs it to choose between a reverse
    side-file entry and a logical tree undo; the paper's Figure 2 leaves
    this bookkeeping implicit in "the record management component has to
    be aware whether IB is active").  Side-file appends already happened,
    atomically with the decision.
    """

    count: int
    direct: list = field(default_factory=list)
    sf_routed: list = field(default_factory=list)


@dataclass
class BuildContext:
    """State of one in-progress build shared with the maintenance hook.

    One context covers all indexes being built in a single data scan
    (section 6.2 allows several); they share the scan position.
    """

    mode: str
    descriptors: list = field(default_factory=list)
    #: SF's Current-RID: records with RID strictly below it have been
    #: scanned.  Starts at RID(0, 0) ("nothing scanned"), goes to
    #: INFINITY_RID when the scan finishes (section 3.2.2).
    current_rid: int = RID(0, 0)
    #: SF's Index_Build flag (section 3.2.1)
    index_build: bool = True
    #: PSF's per-partition frontier vector (one Current-RID per shard,
    #: :class:`repro.sidefile.ScanFrontier`).  ``None`` for serial builds.
    frontier: Optional[object] = None

    def covers(self, descriptor: "IndexDescriptor") -> bool:
        return descriptor in self.descriptors

    def scanned(self, rid: int) -> bool:
        """Generalized ``Target-RID < Current-RID`` test (section 3.1).

        With a frontier vector installed, the record is scanned iff it is
        behind the frontier of the shard owning its page; otherwise the
        paper's single-scan comparison applies.
        """
        if self.frontier is not None:
            return self.frontier.scanned(rid)
        return rid < self.current_rid


class IndexMaintenance:
    """Per-table hook invoked by the record manager (Figure 1 / Figure 2)."""

    def __init__(self, system: "System", table: "Table") -> None:
        self.system = system
        self.table = table

    # -- visibility (Figure 1's IF ladder) ---------------------------------

    def _context(self) -> Optional[BuildContext]:
        return self.system.builds.get(self.table.name)

    def _is_visible(self, descriptor: "IndexDescriptor", rid: int,
                    context: Optional[BuildContext]) -> bool:
        if descriptor.state is IndexState.AVAILABLE:
            return True
        if descriptor.state is IndexState.CANCELLED:
            return False
        if context is not None and context.covers(descriptor):
            if context.mode == NSF_MODE:
                return True  # visible since descriptor creation (§2.2.1)
            if context.mode in SF_LIKE_MODES:
                return context.scanned(rid)  # §3.1, frontier-generalized
            return False  # offline: never maintained by transactions
        # BUILDING descriptor with no live context (builder crashed, not
        # yet resumed).  NSF indexes stay visible -- their maintenance
        # needs no builder.  SF indexes are handled by the resumed
        # context; without one, treat as invisible (the resume hook
        # reinstalls the context before any transaction runs).
        return getattr(descriptor, "build_mode", None) == NSF_MODE

    def visible_count(self, txn: "Transaction", rid: int) -> int:
        """The count logged with every data-page record (section 3.1)."""
        return len(self._visible_descriptors(rid)[0])

    def _visible_descriptors(self, rid: int):
        context = self._context()
        return [d for d in self.table.indexes
                if self._is_visible(d, rid, context)], context

    # -- forward processing (Figure 1) ------------------------------------------
    #
    # The record manager (``Table.write``) calls ``prepare`` while still
    # holding the data page's X latch: the visibility decision, the
    # logged count, and any side-file appends happen in one atomic step
    # -- so IB's drain-completion test ("position == end of side-file",
    # section 3.2.5) can never race with an append whose visibility
    # decision predated the flip.  Direct tree updates (which latch index
    # pages) are returned as work items and applied after the data latch
    # is dropped, matching the paper's latch-ordering rule (section 1.2).

    def prepare(self, txn: "Transaction", rid: int,
                old: Optional["Record"],
                new: Optional["Record"]) -> "OpSnapshot":
        """The visibility decision for one record change, ``old`` to
        ``new`` (``None``: no record)."""
        visible, context = self._visible_descriptors(rid)
        snapshot = OpSnapshot(count=len(visible))
        for descriptor in visible:
            changes = key_changes(descriptor, old, new)
            if not changes:
                continue  # key columns unchanged; index untouched
            if routes_to_sidefile(descriptor, context):
                snapshot.sf_routed.append(descriptor.name)
                sidefile = self.system.sidefiles[descriptor.name]
                for operation, key in changes:
                    sidefile.append_sync(txn, operation, key, rid)
                    self._count_shard_append(context, rid)
            else:
                snapshot.direct.extend((descriptor, operation, key, rid)
                                       for operation, key in changes)
        return snapshot

    def _count_shard_append(self, context: "BuildContext",
                            rid: int) -> None:
        """Attribute a side-file append to the shard owning its page."""
        if context.frontier is not None:
            shard = context.frontier.shard_of(rid_page(rid))
            self.system.metrics.incr(f"psf.sidefile_appends.{shard}")

    def apply_direct(self, txn: "Transaction", snapshot: "OpSnapshot"):
        """Generator: perform the deferred direct tree updates."""
        for descriptor, operation, key, rid in snapshot.direct:
            during_build = descriptor.state is not IndexState.AVAILABLE
            if operation == INSERT:
                yield from descriptor.tree.txn_insert_key(
                    txn, key, rid, during_build=during_build)
            else:
                yield from descriptor.tree.txn_delete_key(
                    txn, key, rid, during_build=during_build)

    # -- rollback (Figure 2) -------------------------------------------------------

    def on_undo(self, txn: "Transaction", log_record: LogRecord, rid: int,
                old_record: Optional["Record"],
                new_record: Optional["Record"]):
        """Compensate index effects for indexes that became visible
        between forward processing and rollback.

        ``old_record``/``new_record`` are the record states before/after
        the undo (``None``: no record -- an undone delete / insert).
        Indexes visible at forward-processing time logged their own key
        operations and are handled by the normal undo chain; only the
        *newly visible* suffix of the index list needs action here
        (visibility only grows, footnote 6).
        """
        logged_count = log_record.payload[H_VISIBLE]
        sf_routed = log_record.payload[H_SF_ROUTED]
        current_visible, context = self._visible_descriptors(rid)
        newly_visible = current_visible[logged_count:]
        for descriptor in self.table.indexes:
            if descriptor.name in sf_routed:
                # Forward processing covered this index via the side-file
                # (redo-only appends); the undo chain has nothing for it,
                # so compensate here: a reverse side-file entry while the
                # build runs (visible or not: a restart may have put
                # Current-RID back behind the record, and the drain
                # meets the appended entries), a logical tree undo once
                # it completed.
                if descriptor not in current_visible \
                        and not routes_to_sidefile(descriptor, context):
                    continue
            elif descriptor not in newly_visible:
                # Invisible, or covered directly at forward time: the
                # transaction's own key-operation log records undo it.
                continue
            # Newly visible (Figure 2's count comparison) or side-file
            # routed: compensate now.
            yield from self._compensate(txn, descriptor, context, rid,
                                        old_record, new_record)
            self.system.metrics.incr("maintenance.figure2_compensations")

    def _compensate(self, txn: "Transaction",
                    descriptor: "IndexDescriptor",
                    context: Optional[BuildContext], rid: int,
                    old_record, new_record):
        """One index's compensation: side-file entry while the build is
        incomplete, logical tree undo once it finished (Figure 2)."""
        changes = key_changes(descriptor, old_record, new_record)
        in_sf_build = routes_to_sidefile(descriptor, context)
        for operation, key in changes:
            if in_sf_build:
                sidefile = self.system.sidefiles[descriptor.name]
                sidefile.append_during_undo(txn, operation, key, rid)
                self._count_shard_append(context, rid)
            else:
                # Completed build: logical undo by traversing the tree.
                tree = descriptor.tree
                tree_action = ("pseudo_delete" if operation == DELETE
                               else "insert")
                tree.apply_logical(tree_action, key, rid)
                payload, size = index_payload(descriptor.name, tree_action,
                                              None, key, rid)
                self.system.log.append(
                    txn.txn_id, RecordKind.COMPENSATION,
                    redo=("index.apply", payload), size=size)
                self.system.metrics.incr("maintenance.logical_tree_undos")
        return
        yield  # pragma: no cover - generator shape


def key_changes(index, old: Optional["Record"],
                new: Optional["Record"]) -> list:
    """The index-key operations that turn ``old`` into ``new`` (``None``:
    no record) for an index with ``key_of``: ``[]`` when the key columns
    are unchanged, else a ``(DELETE, old key)`` and/or an ``(INSERT, new
    key)``, in that order.  Figure 1 applies them forward; Figure 2's
    compensation applies them from the undo's before to its after."""
    old_key = None if old is None else index.key_of(old)
    new_key = None if new is None else index.key_of(new)
    if old_key == new_key:
        return []
    changes = []
    if old is not None:
        changes.append((DELETE, old_key))
    if new is not None:
        changes.append((INSERT, new_key))
    return changes


def routes_to_sidefile(descriptor: "IndexDescriptor",
                       context: Optional[BuildContext]) -> bool:
    """Does a visible index's maintenance go to its side-file?  Yes while
    a side-file build of it runs (SF and its modes); a completed index
    or an NSF build is maintained in the tree directly."""
    return (descriptor.state is not IndexState.AVAILABLE
            and context is not None
            and context.covers(descriptor)
            and context.mode in SF_LIKE_MODES)


def install_maintenance(system: "System", table: "Table") -> IndexMaintenance:
    """Ensure the table's maintenance hook is the real one."""
    if not isinstance(table.maintenance, IndexMaintenance):
        table.maintenance = IndexMaintenance(system, table)
    return table.maintenance
