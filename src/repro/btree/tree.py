"""The B+-tree index manager.

Implements the index-side machinery both algorithms rely on:

* ordinary transaction key inserts and deletes with latching and logging
  (ARIES/IM style, sections 1.1 and 2.2.3);
* the *duplicate-key rejection* logic of NSF (section 2.1.1): whoever
  arrives second -- IB or the transaction -- skips the physical insert; a
  transaction still writes an **undo-only** log record so its rollback
  removes the key IB inserted;
* *pseudo-deleted keys* (section 2.1.2): logical deletion via a 1-bit flag,
  tombstone inserts by deleters who find no key, reactivation on rollback;
* unique-index checks that distinguish a genuine unique-key violation from
  an in-flight insert/delete by testing whether the owning record's lock is
  free (data-only locking, sections 2.2.3 and 6.2);
* NSF's IB insert path: multi-key calls, the remembered root-to-leaf path,
  and the *specialized split* that moves only keys higher than IB's insert
  point (section 2.3.1);
* next-key locking for phantom protection during normal operation, and its
  suppression while the index is still being built (section 2.2.3: "No
  next key locking is done during key inserts into the new index while
  index build is still in progress");
* logical redo/undo integrated with restart recovery via a per-tree
  ``durable_lsn`` snapshot watermark (see DESIGN.md, "crash model").

All public mutators are generators (they latch pages and charge simulated
CPU cost); everything between two yields is atomic, so structure
modifications are consistent without interior-node latching while leaf
latches still create the contention the experiments measure.  Lock waits
never happen while a latch is held (the latch-deadlock avoidance rule of
section 1.2): conflicts are detected under the latch with *conditional*
lock probes, and the actual wait happens after the latch is released,
followed by a retry.
"""

from __future__ import annotations

import enum
from bisect import bisect_right, insort
from itertools import filterfalse, pairwise
from typing import Iterator, NamedTuple, Optional, Sequence, TYPE_CHECKING

from repro.btree.node import (BranchPage, CompositeKey, LeafPage, entry_key,
                              entry_rid, format_entry, make_entry)
from repro.errors import IndexBuildError, StorageError, UniqueViolationError
from repro.faultinject.injector import InjectedCrash
from repro.faultinject.sites import fault_point, fault_points_enabled
from repro.sim.kernel import Acquire, Delay
from repro.sim.latch import EXCLUSIVE, SHARE
from repro.storage.rid import format_rid
from repro.wal.records import (HEADER_SIZE, OP_SIZE, LogRecord, RecordKind,
                               value_size)

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System
    from repro.txn.transaction import Transaction

class InsertOutcome(enum.Enum):
    """What a transaction's key insert physically did."""

    INSERTED = "inserted"
    REACTIVATED = "reactivated"          # pseudo-deleted entry revived
    DUPLICATE_NOOP = "duplicate-noop"    # IB beat us; undo-only log written
    REPLACED_RID = "replaced-rid"        # unique: tombstone revived, new RID


class IBCursor:
    """NSF's remembered root-to-leaf path (section 2.3.1).

    IB avoids a full traversal when the cached leaf still covers the next
    key; the cache is invalidated by any split (the tree bumps
    ``structure_version``).
    """

    __slots__ = ("leaf_no", "version")

    def __init__(self) -> None:
        self.leaf_no: Optional[int] = None
        self.version = -1


class StableImage(NamedTuple):
    """What of a tree survives a crash: an immutable image per page as of
    the force that last wrote it (pages ``0 .. next_page_no - 1``), and
    the root, allocation frontier and LSN of the last force."""

    pages: dict
    root: Optional[int] = None
    next_page_no: int = 0
    durable_lsn: int = 0


class BTree:
    """One B+-tree index over a table."""

    def __init__(self, system: "System", name: str, table_name: str,
                 unique: bool = False,
                 leaf_capacity: Optional[int] = None,
                 branch_capacity: Optional[int] = None) -> None:
        self.system = system
        self.name = name
        self.table_name = table_name
        self.unique = unique
        self.leaf_capacity = leaf_capacity or system.config.leaf_capacity
        self.branch_capacity = branch_capacity or system.config.branch_capacity
        self.pages: dict[int, LeafPage | BranchPage] = {}
        self.root: Optional[int] = None
        self._next_page_no = 0
        #: bumped by every split; invalidates IB cursors
        self.structure_version = 0
        #: log records with LSN <= durable_lsn are reflected in the stable
        #: image; recovery redoes only younger index log records
        self.durable_lsn = 0
        self._stable = StableImage({})
        #: numbers of the pages changed since the last force: every site
        #: that mutates a page adds it, force() images these and no others
        self.dirty: set[int] = set()
        #: pages imaged by all forces so far (the work-bound test reads it)
        self.pages_imaged = 0
        #: True once a force tore (damaged) the stable image: nothing of
        #: the surviving tree image is usable and recovery must either
        #: replay the full log (NSF, fully logged) or rebuild from the
        #: sorted runs (SF, unlogged build; section 6's fallback).
        self.media_damaged = False
        #: leaf page number -> (lower fence, upper fence), the separators
        #: a descent passed on its way to that leaf; see _traverse
        self._fences: dict[int, tuple] = {}
        #: the pseudo-delete bits (section 2.1.2): the composites of the
        #: pseudo-deleted entries.  Only _edit changes it; _load rebuilds
        #: it from the leaf images.
        self.pseudo_deleted: set[CompositeKey] = set()
        self._register_operations()

    # ------------------------------------------------------------------
    # page allocation
    # ------------------------------------------------------------------

    def _allocate_leaf(self) -> LeafPage:
        page = LeafPage(self._next_page_no, self.leaf_capacity,
                        metrics=self.system.metrics)
        self.pages[page.page_no] = page
        self.dirty.add(page.page_no)
        self._next_page_no += 1
        self.system.metrics.incr("index.pages_allocated")
        return page

    def _allocate_branch(self) -> BranchPage:
        page = BranchPage(self._next_page_no, self.branch_capacity,
                          metrics=self.system.metrics)
        self.pages[page.page_no] = page
        self.dirty.add(page.page_no)
        self._next_page_no += 1
        self.system.metrics.incr("index.pages_allocated")
        return page

    def _ensure_root(self) -> LeafPage:
        if self.root is None:
            leaf = self._allocate_leaf()
            self.root = leaf.page_no
            return leaf
        node = self.pages[self.root]
        while isinstance(node, BranchPage):
            node = self.pages[node.children[0]]
        return node

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def _traverse(self, composite: CompositeKey, *, count: bool = True
                  ) -> tuple[LeafPage, list[tuple[BranchPage, int]]]:
        """Root-to-leaf descent; returns the leaf and the branch path.

        Every leaf handle, branch path and fence pair in this class
        comes from here (section 2.3.1: "remember the path from the root
        to the leaf"), good for the ``structure_version`` it was taken
        at.  The separators passed on the way down are exactly the
        leaf's fences -- a deeper separator lies inside the bounds of
        the shallower ones, so the deepest one on each side wins -- and
        they are memoised for :meth:`_leaf_covers`.
        """
        if count:
            self.system.metrics.incr("index.traversals")
        if self.root is None:
            self._ensure_root()
        node = self.pages[self.root]
        path: list[tuple[BranchPage, int]] = []
        low_fence = high_fence = None
        while isinstance(node, BranchPage):
            child_no, slot = node.child_for(composite)
            separators = node.separators
            if slot:
                low_fence = separators[slot - 1]
            if slot < len(separators):
                high_fence = separators[slot]
            path.append((node, slot))
            node = self.pages[child_no]
        self._fences[node.page_no] = (low_fence, high_fence)
        if count:
            self.system.metrics.incr("index.page_visits", len(path) + 1)
        return node, path

    def _path_after_wait(self, leaf: LeafPage,
                         path: list[tuple[BranchPage, int]], version: int,
                         composite: CompositeKey
                         ) -> Optional[list[tuple[BranchPage, int]]]:
        """The current branch path to ``leaf`` if it still covers
        ``composite``, else None (the caller retries from the root).

        ``leaf`` and ``path`` came from a descent for ``composite`` at
        ``version``; waiting for the leaf latch yielded the simulator, so
        the leaf may have split since.  "This leaf covers the key" *is*
        "a descent for the key ends here": an unmoved
        ``structure_version`` proves it, otherwise one more (uncounted,
        uncharged) descent decides and supplies the new path.
        """
        if version != self.structure_version:
            landed, path = self._traverse(composite, count=False)
            if landed is not leaf:
                return None
        return path

    def _find_for_key_value(self, key_value
                            ) -> tuple[LeafPage, Optional[CompositeKey]]:
        """Leftmost leaf covering ``key_value`` and its entry, if any.

        The key tuple sorts below every entry with this key value, so it
        is the descent's probe.  Handles the leaf-boundary case where the
        only entry with this key value is the first entry of the *next*
        leaf (its composite is the separator).  Only meaningful for
        unique indexes, which hold at most one entry per key value.
        """
        leaf, _path = self._traverse(key_value, count=False)
        entry = leaf.find_key_value(key_value)
        if entry is None:
            next_no = leaf.next_leaf
            while next_no is not None:
                successor = self.pages.get(next_no)
                if successor is None:
                    break
                if successor.entries:
                    if entry_key(successor.entries[0]) == key_value:
                        return successor, successor.entries[0]
                    break
                next_no = successor.next_leaf
        return leaf, entry

    # ------------------------------------------------------------------
    # structure modification (atomic helpers; no yields)
    # ------------------------------------------------------------------

    def _insert_sorted(self, leaf: LeafPage, entry: CompositeKey,
                       path: Optional[list[tuple[BranchPage, int]]] = None,
                       specialized_for_ib: bool = False) -> LeafPage:
        """Place ``entry`` in ``leaf``, splitting if needed.

        ``path`` is the branch path of the descent that produced
        ``leaf`` while ``structure_version`` has not moved since; None
        (IB's cursor keeps no path, and a latched group's own split
        outdates the one it started with) descends again for the entry.
        Returns the leaf that finally holds the entry.  With
        ``specialized_for_ib`` the split follows section 2.3.1: keys higher
        than IB's key move to the new leaf (the few keys inserted by
        transactions), or -- when none are higher -- a fresh leaf is
        allocated for IB's key alone, mimicking a bottom-up build.
        """
        self.dirty.add(leaf.page_no)
        if not leaf.is_full:
            insort(leaf.entries, entry)
            return leaf
        if path is None:
            landed, path = self._traverse(entry, count=False)
            if landed is not leaf:
                raise StorageError(
                    f"leaf {leaf.page_no} of {self.name} does not cover "
                    f"{format_entry(entry)}: not a handle from a descent")
        if specialized_for_ib:
            return self._specialized_split(leaf, entry, path)
        return self._normal_split(leaf, entry, path)

    def _normal_split(self, leaf: LeafPage, entry: CompositeKey,
                      path: list[tuple[BranchPage, int]]) -> LeafPage:
        """Half-and-half split (section 2.3.1: "usually, half the keys in
        the page being split are moved to the new page")."""
        new_leaf = self._allocate_leaf()
        mid = len(leaf.entries) // 2
        new_leaf.entries = leaf.entries[mid:]
        del leaf.entries[mid:]
        self.system.metrics.incr("index.keys_moved", len(new_leaf.entries))
        new_leaf.next_leaf, leaf.next_leaf = leaf.next_leaf, new_leaf.page_no
        separator = new_leaf.entries[0]
        self._finish_split(leaf, new_leaf, separator, path)
        target = new_leaf if entry >= separator else leaf
        insort(target.entries, entry)
        return target

    def _specialized_split(self, leaf: LeafPage, entry: CompositeKey,
                           path: list[tuple[BranchPage, int]]) -> LeafPage:
        """IB's split (section 2.3.1): move only the keys *higher* than
        IB's key to the new page; when none are higher, the new leaf holds
        IB's key alone -- the bottom-up append pattern."""
        pos = leaf.position(entry)
        new_leaf = self._allocate_leaf()
        moved = leaf.entries[pos:]
        del leaf.entries[pos:]
        self.system.metrics.incr("index.keys_moved", len(moved))
        self.system.metrics.incr("index.splits.specialized")
        new_leaf.next_leaf, leaf.next_leaf = leaf.next_leaf, new_leaf.page_no
        if moved:
            new_leaf.entries = moved
            if not leaf.is_full:
                self._finish_split(leaf, new_leaf, moved[0], path)
                insort(leaf.entries, entry)
                return leaf
            moved.insert(0, entry)
            self._finish_split(leaf, new_leaf, entry, path)
            return new_leaf
        new_leaf.entries = [entry]
        self._finish_split(leaf, new_leaf, entry, path)
        return new_leaf

    def _finish_split(self, left: LeafPage, right: LeafPage,
                      separator: CompositeKey,
                      path: list[tuple[BranchPage, int]]) -> None:
        # Mid-split: entries are redistributed and the leaf chain is
        # relinked, but the parent has no separator yet.
        fault_point(self.system.metrics, "btree.split")
        self.structure_version += 1
        # A leaf split changes exactly two leaves' fences; a branch split
        # (below) changes none, the same separators just move up.
        low_fence, high_fence = self._fences[left.page_no]
        self._fences[left.page_no] = (low_fence, separator)
        self._fences[right.page_no] = (separator, high_fence)
        self.system.metrics.incr("index.splits")
        self.system.log.append(
            None, RecordKind.UPDATE,
            redo=("index.split", (self.name, left.page_no, right.page_no)),
            writer="system",
            size=HEADER_SIZE + OP_SIZE + len(self.name) + 16)
        if not path:
            new_root = self._allocate_branch()
            new_root.separators = [separator]
            new_root.children = [left.page_no, right.page_no]
            self.root = new_root.page_no
            return
        parent, slot = path[-1]
        self.dirty.add(parent.page_no)
        parent.separators.insert(slot, separator)
        parent.children.insert(slot + 1, right.page_no)
        if parent.is_full:
            self._split_branch(parent, path[:-1])

    def _split_branch(self, branch: BranchPage,
                      path: list[tuple[BranchPage, int]]) -> None:
        # ``branch`` is dirty already: the caller just inserted into it.
        new_branch = self._allocate_branch()
        mid = len(branch.separators) // 2
        push_up = branch.separators[mid]
        new_branch.separators = branch.separators[mid + 1:]
        new_branch.children = branch.children[mid + 1:]
        del branch.separators[mid:]
        del branch.children[mid + 1:]
        self.structure_version += 1
        self.system.metrics.incr("index.splits")
        if not path:
            new_root = self._allocate_branch()
            new_root.separators = [push_up]
            new_root.children = [branch.page_no, new_branch.page_no]
            self.root = new_root.page_no
            return
        parent, slot = path[-1]
        self.dirty.add(parent.page_no)
        parent.separators.insert(slot, push_up)
        parent.children.insert(slot + 1, new_branch.page_no)
        if parent.is_full:
            self._split_branch(parent, path[:-1])

    # ------------------------------------------------------------------
    # transaction operations (generators)
    # ------------------------------------------------------------------

    def _latched_leaf(self, composite: CompositeKey,
                      key_value: Optional[tuple] = None):
        """Generator: descend for ``composite`` and X-latch the leaf it
        lands on, again from the root while that leaf split during the
        latch wait.  Returns ``(leaf, path, visits)`` with the latch held:
        ``path`` good for the current ``structure_version``, ``visits``
        the pages the counted descent visited.

        A ``key_value`` (a unique insert) locates the leftmost leaf for
        the key value alone, possibly the successor of the composite's
        leaf, and keeps it with no path while it holds the key value.
        """
        while True:
            if key_value is not None:
                leaf, _entry = self._find_for_key_value(key_value)
                self.system.metrics.incr("index.traversals")
                path, version = [], -1  # -1: descend under the latch
            else:
                leaf, path = self._traverse(composite)
                version = self.structure_version
            visits = len(path) + 1
            if not self.system.sim.acquired(leaf.latch, EXCLUSIVE):
                yield Acquire(leaf.latch, EXCLUSIVE)
            path = self._path_after_wait(leaf, path, version, composite)
            if path is not None or (
                    key_value is not None
                    and leaf.find_key_value(key_value) is not None):
                return leaf, path, visits
            leaf.latch.release(self.system.sim.current)

    def txn_insert_key(self, txn: "Transaction", key_value, rid: int, *,
                       during_build: bool):
        """Generator: a transaction inserts ``<key_value, rid>``.

        Implements the forward-processing insert of sections 2.1.1 and
        2.2.3, including the undo-only log record when the key was already
        inserted by IB, pseudo-delete reactivation, and the unique-index
        decision procedure.  Returns an :class:`InsertOutcome`.
        """
        composite = make_entry(key_value, rid)
        while True:
            leaf, path, _visits = yield from self._latched_leaf(
                composite, key_value if self.unique else None)
            try:
                outcome = yield from self._insert_decide(
                    txn, leaf, path, composite, key_value, rid)
            finally:
                leaf.latch.release(self.system.sim.current)
            if isinstance(outcome, InsertOutcome):
                break
            if outcome is not None:
                # Wait (latch-free) for the conflicting record's fate.
                yield from txn.lock(outcome, "S", instant=True)
        fault_point(self.system.metrics, "btree.txn_insert")
        if not during_build:
            yield from self._next_key_lock(txn, leaf, composite,
                                           instant=True)
        if not self.system.sim.delayed(self.system.config.key_op_cost):
            yield Delay(self.system.config.key_op_cost)
        return outcome

    def _insert_decide(self, txn, leaf, path, composite: CompositeKey,
                       key_value: tuple, rid: int):
        """A transaction's insert under the leaf latch.

        Returns an :class:`InsertOutcome`, raises
        :class:`UniqueViolationError`, or returns what the caller must do
        with the latch released before it retries: None (descend again)
        or the lock name of the record whose fate it must wait for
        (section 2.2.3: "the transaction ensures that the found key ...
        belongs to a committed record (or that the key is its own
        uncommitted insert)").  Generator (a unique index probes locks
        conditionally -- probes never wait).
        """
        if not self.unique:
            found = leaf.find_exact(composite)
        else:
            found = leaf.find_key_value(key_value)
            if found is None and leaf.next_leaf is not None:
                successor = self.pages[leaf.next_leaf]
                if successor.entries \
                        and entry_key(successor.entries[0]) == key_value:
                    return None  # re-traverse, rare
        if found is None:
            self._change(txn, leaf, path, None, "insert", "pseudo_delete",
                         key_value, rid, "index.inserts.txn")
            return InsertOutcome.INSERTED
        if entry_rid(found) == rid:
            if found in self.pseudo_deleted:
                # Section 2.2.3 step 8: resetting the pseudo-delete flag.
                self._change(txn, leaf, path, found, "reactivate",
                             "pseudo_delete", key_value, rid,
                             "index.reactivations")
                return InsertOutcome.REACTIVATED
            # Identical key already present: IB inserted it first.  The
            # undo-only record lets a rollback still delete it (2.1.1).
            self._change(txn, leaf, path, found, None, "pseudo_delete",
                         key_value, rid, "index.duplicate_rejections.txn")
            return InsertOutcome.DUPLICATE_NOOP
        # Unique, same key value, another RID: is that entry settled?
        owner_lock = self._record_lock_name(entry_rid(found))
        if owner_lock in txn.held_locks:
            owner_terminated = True  # our own earlier change; settled
        else:
            owner_terminated = yield from txn.lock(
                owner_lock, "S", conditional=True, instant=True)
        if not owner_terminated:
            return owner_lock
        if found in self.pseudo_deleted:
            # Terminated deleter's tombstone: revive it with the new RID
            # (the paper's <K,R> / <K,R1> example, section 2.2.3).
            self._change(txn, leaf, path, found, "replace_rid",
                         "restore_entry", key_value, rid,
                         "index.rid_replacements", old_rid=entry_rid(found))
            return InsertOutcome.REPLACED_RID
        raise UniqueViolationError(
            f"unique index {self.name}: key {key_value!r} already maps to "
            f"committed record {format_rid(entry_rid(found))}")

    def txn_delete_key(self, txn: "Transaction", key_value, rid: int, *,
                       during_build: bool):
        """Generator: a transaction deletes ``<key_value, rid>``.

        During an NSF build the delete is *logical*: an existing key is
        flagged pseudo-deleted, and a missing key is inserted as a
        tombstone so IB's later insert attempt is rejected (section 2.2.3,
        "IB and Delete Operations").  Pseudo deletion lets the deleter
        skip next-key locking; the physical path (normal operation on a
        completed index) takes the next-key lock.
        """
        composite = make_entry(key_value, rid)
        leaf, path, _visits = yield from self._latched_leaf(composite)
        try:
            exact = leaf.find_exact(composite)
            if exact is None:
                self._change(txn, leaf, path, None, "insert_tombstone",
                             "reactivate", key_value, rid,
                             "index.tombstone_inserts")
            elif not during_build:
                self._change(txn, leaf, path, exact, "physical_delete",
                             "insert", key_value, rid,
                             "index.physical_deletes")
            elif exact not in self.pseudo_deleted:
                self._change(txn, leaf, path, exact, "pseudo_delete",
                             "reactivate", key_value, rid,
                             "index.pseudo_deletes")
            # an already-pseudo-deleted exact match needs no action
        finally:
            leaf.latch.release(self.system.sim.current)
        fault_point(self.system.metrics, "btree.txn_delete")
        if not during_build and exact is not None:
            yield from self._next_key_lock(txn, leaf, composite,
                                           instant=False)
        if not self.system.sim.delayed(self.system.config.key_op_cost):
            yield Delay(self.system.config.key_op_cost)

    def _next_key_lock(self, txn, leaf: LeafPage, composite: CompositeKey,
                       instant: bool):
        """Phantom protection on the key next above ``composite``.

        Walks the leaf chain from ``leaf`` (which may have split since
        the caller located it) until an entry strictly above
        ``composite`` is found; locks end-of-index otherwise.
        """
        next_entry = None
        node: Optional[LeafPage] = leaf
        while node is not None and next_entry is None:
            entries = node.entries
            pos = bisect_right(entries, composite)
            if pos < len(entries):
                next_entry = entries[pos]
            node = (self.pages.get(node.next_leaf)
                    if node.next_leaf is not None else None)
        if next_entry is None:
            lock_name = ("index-eof", self.name)
        else:
            lock_name = self._record_lock_name(entry_rid(next_entry))
        self.system.metrics.incr("index.nextkey_locks")
        yield from txn.lock(lock_name, "X", instant=instant)

    def _record_lock_name(self, rid: int) -> tuple:
        return ("rec", self.table_name, rid)

    # ------------------------------------------------------------------
    # IB operations (NSF; generators)
    # ------------------------------------------------------------------

    def ib_insert_batch(self, ib_txn: "Transaction",
                        keys: Sequence[tuple], cursor: IBCursor, *,
                        write_log: bool = True):
        """Generator: NSF's index builder inserts a batch of sorted keys.

        Section 2.2.3: "the index manager will accept multiple keys in a
        single call"; "tree traversals are avoided most of the time by
        remembering the path from the root to the leaf"; "the log record
        can contain multiple keys".  Duplicate keys -- including
        pseudo-deleted ones -- are rejected without any log write.

        The leaf latch is held across every consecutive key that lands in
        the same leaf, and the covering multi-key log record is written
        *before* the latch is released -- WAL ordering demands it: a
        transaction's pseudo-delete of one of these keys must log after
        the insert it observed, or media/restart replay reverses them.

        Returns the number of keys physically inserted.
        """
        inserted = 0
        total = len(keys)
        index = 0
        metrics, sim = self.system.metrics, self.system.sim
        leaf_covers = self._leaf_covers
        ib_classify = self._ib_classify
        insert_sorted = self._insert_sorted
        while index < total:
            leaf = self._locate_ib_leaf(cursor, keys[index])
            version = self.structure_version
            if not sim.acquired(leaf.latch, EXCLUSIVE):
                yield Acquire(leaf.latch, EXCLUSIVE)
            if version != self.structure_version and self._traverse(
                    keys[index], count=False)[0] is not leaf:
                # The leaf split while we waited for its latch; drop the
                # cursor and locate afresh.
                leaf.latch.release(self.system.sim.current)
                cursor.leaf_no = None
                continue
            pending: list[tuple] = []
            rejected = 0
            unique_check: Optional[tuple] = None
            try:
                while index < total:
                    # the merger's own entry goes in the leaf and the log
                    # record: the sort keeps it anyway
                    composite = keys[index]
                    if not leaf_covers(leaf, composite):
                        break  # next key lives elsewhere; re-locate
                    action = ib_classify(leaf, composite)
                    if action == "unique-check":
                        unique_check = composite
                        break
                    if action == "reject":
                        rejected += 1
                        index += 1
                        continue
                    target = insert_sorted(leaf, composite,
                                           specialized_for_ib=True)
                    pending.append(composite)
                    index += 1
                    cursor.leaf_no = target.page_no
                    cursor.version = self.structure_version
                    if target is not leaf:
                        # A split moved the insert frontier to a page we
                        # do not hold; end this latched group.
                        break
                # Counters are bumped once per latched group, not once
                # per key: same totals, a fraction of the dict traffic.
                if rejected:
                    metrics.incr("index.duplicate_rejections.ib", rejected)
                if pending:
                    inserted += len(pending)
                    metrics.incr("index.inserts.ib", len(pending))
                    if write_log:
                        # One undo-redo record for the group ("the log
                        # record can contain multiple keys", 2.2.3); it
                        # keeps ``pending``, which nothing touches again.
                        self._log_key_op(ib_txn, "insert_many", pending,
                                         None, undo_action="remove_many",
                                         writer="ib")
            finally:
                leaf.latch.release(self.system.sim.current)
            if pending:
                fault_point(self.system.metrics, "btree.ib_insert")
                cost = self.system.config.key_op_cost * len(pending)
                if not sim.delayed(cost):
                    yield Delay(cost)
            if unique_check is not None:
                # Latch-free verification; may raise IndexBuildError.
                settled = yield from self._ib_unique_check(
                    ib_txn, entry_key(unique_check),
                    entry_rid(unique_check))
                if not settled:
                    index += 1  # key skipped (record vanished meanwhile)
                # else: retry the same key from the top
        return inserted

    def _leaf_covers(self, leaf: LeafPage,
                     composite: CompositeKey) -> bool:
        """Does ``composite`` belong in ``leaf``'s separator-fenced range?

        The hot loops' test for "the next key of the batch still lands
        here": two comparisons against the fences memoised by the descent
        that produced ``leaf`` and patched by every split since.  The
        fences are the *parent separators*, not the leaf chain: a leaf
        emptied by rollbacks still owns its range, and its first entry
        may legally equal its own lower fence.  Only meaningful at the
        ``structure_version`` the handle is known good for -- after a
        latch wait, :meth:`_path_after_wait` comes first.
        """
        try:
            low_fence, high_fence = self._fences[leaf.page_no]
        except KeyError:
            raise StorageError(
                f"leaf {leaf.page_no} of {self.name}: not a handle from a "
                f"descent") from None
        if low_fence is not None and composite < low_fence:
            return False
        if high_fence is not None and composite >= high_fence:
            return False
        return True

    def _locate_ib_leaf(self, cursor: IBCursor,
                        composite: CompositeKey) -> LeafPage:
        leaf = self._cursor_leaf(cursor, composite)
        if leaf is not None:
            self.system.metrics.incr("index.ib_path_reuses")
            return leaf
        leaf, _path = self._traverse(composite)
        cursor.leaf_no = leaf.page_no
        cursor.version = self.structure_version
        return leaf

    def _cursor_leaf(self, cursor: IBCursor,
                     composite: CompositeKey) -> Optional[LeafPage]:
        if cursor.leaf_no is None or cursor.version != self.structure_version:
            return None
        leaf = self.pages.get(cursor.leaf_no)
        if not isinstance(leaf, LeafPage):
            return None
        if not self._leaf_covers(leaf, composite):
            return None
        return leaf

    def _ib_classify(self, leaf: LeafPage, composite: CompositeKey) -> str:
        """Decide IB's action for one key under the leaf latch.

        Returns "insert", "reject", or "unique-check" (the caller must
        verify committedness with the latch released, then retry).
        """
        if not self.unique:
            if leaf.find_exact(composite) is not None:
                # Section 2.2.3: rejected inserts write no log record.
                return "reject"
            return "insert"
        key_value = entry_key(composite)
        found = leaf.find_key_value(key_value)
        if found is None and leaf.next_leaf is not None:
            successor = self.pages[leaf.next_leaf]
            if successor.entries \
                    and entry_key(successor.entries[0]) == key_value:
                found = successor.entries[0]
        if found is None:
            return "insert"
        if entry_rid(found) == entry_rid(composite):
            return "reject"
        return "unique-check"

    def _ib_unique_check(self, ib_txn, key_value, rid: int):
        """Section 2.2.3: IB locks *both* records in share mode and
        re-verifies whether two committed records share the key value; if
        they do, the build is abnormally terminated.  Generator; returns
        True when the caller should retry the insert, False to skip the
        key (its record no longer exists or no longer has this key).
        """
        self.system.metrics.incr("index.ib_unique_checks")
        table = self.system.tables[self.table_name]
        _leaf, found = self._find_for_key_value(key_value)
        if found is None or entry_rid(found) == rid:
            return True
        yield from ib_txn.lock(self._record_lock_name(entry_rid(found)), "S",
                               instant=True)
        yield from ib_txn.lock(self._record_lock_name(rid), "S",
                               instant=True)
        # Both records are now settled; re-verify the conflict.
        _leaf, still = self._find_for_key_value(key_value)
        if still is None or entry_rid(still) == rid:
            return True
        mine = yield from table.read_latched(rid)
        if mine is None:
            return False  # our record was deleted; drop the key
        descriptor = self.system.indexes.get(self.name)
        if descriptor is not None \
                and descriptor.key_of(mine) != key_value:
            return False  # our record was updated away from this key
        if still in self.pseudo_deleted:
            # Tombstone of a settled delete: revive it under IB's RID,
            # logged like a transaction's REPLACED_RID.
            leaf, entry = self._find_for_key_value(key_value)
            if entry is not None and entry in self.pseudo_deleted:
                self._change(ib_txn, leaf, None, entry, "replace_rid",
                             "restore_entry", key_value, rid,
                             "index.rid_replacements",
                             old_rid=entry_rid(entry), writer="ib")
                self.system.metrics.incr("index.inserts.ib")
                return False  # handled here; no retry needed
            return True
        theirs = yield from table.read_latched(entry_rid(still))
        if theirs is None:
            return True  # entry is stale; retry and re-evaluate
        if descriptor is not None \
                and descriptor.key_of(theirs) != key_value:
            return True
        raise IndexBuildError(
            f"cannot build unique index {self.name}: committed records "
            f"{format_rid(rid)} and {format_rid(entry_rid(still))} share key "
            f"value {key_value!r}")

    def sf_drain_apply_batch(self, ib_txn: "Transaction",
                             entries: Sequence[tuple]):
        """Generator: apply a batch of side-file entries (section 3.2.5).

        IB "traverses the index from the root and, based on the entry in
        the side-file, inserts or deletes the key in the index as a normal
        transaction would do.  That is, IB writes undo-redo log records".
        SF does not need pseudo deletion (section 4), so deletes are
        physical.  Exact-composite matching keeps the drain idempotent; a
        unique index may transiently hold two RIDs for one key value until
        a later DELETE entry drains (final uniqueness is verified by the
        builder when the drain completes).

        One traversal and one leaf-latch hold cover every consecutive
        entry that still falls inside the latched leaf's fences; the
        first entry outside them re-traverses.  WAL records are written
        per entry and the ``btree.drain_apply`` fault site fires at every
        entry when an injector is installed.  The simulated charge per
        latch hold is ``key_op_cost`` per entry plus
        ``drain_visit_cost`` per page the one descent visited; with a
        nonzero ``drain_visit_cost`` batching shrinks the drain's
        catch-up window by amortizing descents (EXPERIMENTS.md E19) -- a
        batch of one pays that descent for every entry.  At the default
        ``drain_visit_cost = 0`` the two totals are equal, preserving the
        baseline calibration.

        ``entries`` is a sequence of ``(operation, key_value, rid)``.
        Returns the number of entries applied.
        """
        metrics = self.system.metrics
        fp_enabled = fault_points_enabled(metrics)
        key_op_cost = self.system.config.key_op_cost
        visit_cost = self.system.config.drain_visit_cost
        leaf_covers = self._leaf_covers
        change = self._change
        pseudo_deleted = self.pseudo_deleted
        total = len(entries)
        applied = 0
        index = 0
        while index < total:
            _operation, key_value, rid = entries[index]
            leaf, path, visits = yield from self._latched_leaf(
                make_entry(key_value, rid))
            version = self.structure_version
            group = 0
            try:
                while index < total:
                    operation, key_value, rid = entries[index]
                    composite = make_entry(key_value, rid)
                    if not leaf_covers(leaf, composite):
                        break  # next entry lives elsewhere; re-traverse
                    if version != self.structure_version:
                        path = None  # outdated by this group's own split
                    exact = leaf.find_exact(composite)
                    if operation != "insert":
                        if exact is not None:
                            change(ib_txn, leaf, path, exact,
                                   "physical_delete", "insert", key_value,
                                   rid, "index.deletes.drain")
                    elif exact is None:
                        change(ib_txn, leaf, path, None, "insert",
                               "physical_delete", key_value, rid,
                               "index.inserts.drain")
                    elif exact in pseudo_deleted:
                        change(ib_txn, leaf, path, exact, "reactivate",
                               "pseudo_delete", key_value, rid, None)
                    index += 1
                    group += 1
                    if fp_enabled:
                        fault_point(metrics, "btree.drain_apply")
            finally:
                leaf.latch.release(self.system.sim.current)
            if group:
                applied += group
                cost = key_op_cost * group + visit_cost * visits
                if not self.system.sim.delayed(cost):
                    yield Delay(cost)
        return applied

    def verify_unique(self) -> None:
        """Raise :class:`IndexBuildError` if a unique tree holds two live
        entries with one key value (checked when an SF drain finishes)."""
        if not self.unique:
            return
        for previous, entry in pairwise(self.all_entries()):
            if entry_key(previous) == entry_key(entry):
                raise IndexBuildError(
                    f"cannot build unique index {self.name}: records "
                    f"{format_rid(entry_rid(previous))} and "
                    f"{format_rid(entry_rid(entry))} share key value "
                    f"{entry_key(entry)!r}")

    # ------------------------------------------------------------------
    # the one index-key change: edited, logged, counted
    # ------------------------------------------------------------------

    def _change(self, txn, leaf: Optional[LeafPage], path,
                entry: Optional[CompositeKey], action: Optional[str],
                undo_action: Optional[str], key_value, rid,
                counter: Optional[str], *, old_rid=None,
                writer: str = "txn") -> None:
        """Forward processing's one key change: ``action``'s edit of
        ``entry`` (``leaf``'s entry for the key, None when it holds
        none), its log record, then ``counter``.

        Which half is None picks the record, as ``Table.write``'s
        ``(old, new)`` does for data pages: both given, undo-redo;
        ``undo_action`` None, redo-only (GC); ``action`` None, undo-only
        and no edit (a duplicate insert, section 2.1.1).  ``leaf`` None:
        descend for the key as redo does (a caller that holds no leaf).
        """
        if action is not None:
            composite = make_entry(key_value, rid)
            if leaf is None:
                self._apply(action, composite, old_rid)
            else:
                self._edit(leaf, path, entry, action, composite, old_rid)
        self._log_key_op(txn, action, key_value, rid,
                         undo_action=undo_action, old_rid=old_rid,
                         writer=writer)
        if counter is not None:
            self.system.metrics.incr(counter)

    def _log_key_op(self, txn, action: Optional[str], key_value, rid, *,
                    undo_action: Optional[str], old_rid=None,
                    writer: str = "txn") -> None:
        payload, size = index_payload(self.name, action, undo_action,
                                      key_value, rid, old_rid)
        txn.log(RecordKind.UPDATE,
                redo=None if action is None else ("index.apply", payload),
                undo=(None if undo_action is None
                      else ("index.undo", payload)),
                writer=writer, size=size)

    def _edit(self, leaf: LeafPage, path, entry: Optional[CompositeKey],
              action: str, composite: CompositeKey, old_rid=None) -> None:
        """The one edit of each logical action on ``composite``, made on
        ``entry`` -- ``leaf``'s entry for the key, None when it holds
        none -- and ``leaf``'s dirty mark; the one writer of the
        pseudo-delete bits.  Idempotent: an action whose work is done (or
        has none) leaves the entry as it is."""
        self.dirty.add(leaf.page_no)
        pseudo_deleted = self.pseudo_deleted
        if entry is None:
            if action in ("insert", "reactivate", "insert_tombstone"):
                self._insert_sorted(leaf, composite, path)
                if action == "insert_tombstone":
                    pseudo_deleted.add(composite)
        elif action in ("insert", "reactivate"):
            pseudo_deleted.discard(entry)
        elif action in ("insert_tombstone", "pseudo_delete"):
            pseudo_deleted.add(entry)
        elif action in ("physical_delete", "remove_unless_tombstoned"):
            if action == "physical_delete" or entry not in pseudo_deleted:
                del leaf.entries[leaf.position(entry)]
                pseudo_deleted.discard(entry)
        elif action in ("replace_rid", "restore_entry"):
            # The entry keeps its slot under the other RID: replace_rid
            # revives a tombstone, restore_entry (its undo) puts back
            # <key, old_rid> pseudo-deleted (only a terminated deleter's
            # tombstone is ever replaced).
            pseudo_deleted.discard(entry)
            replaced = composite if action == "replace_rid" \
                else make_entry(entry_key(composite), old_rid)
            leaf.entries[leaf.position(entry)] = replaced
            if action == "restore_entry":
                pseudo_deleted.add(replaced)
        else:  # pragma: no cover - exhaustive dispatch
            raise StorageError(f"unknown index action {action!r}")

    # ------------------------------------------------------------------
    # logical apply (shared by redo and undo)
    # ------------------------------------------------------------------

    def apply_logged(self, payload: tuple) -> None:
        """:meth:`apply_logical` of a log payload's redo half."""
        self.apply_logical(payload[IX_ACTION], *payload[IX_KEY:])

    def apply_logical(self, action: str, key_value, rid,
                      old_rid=None) -> None:
        """Apply one logical key operation, idempotently.

        Used by restart-recovery redo and by rollback's logical undo; the
        tree is traversed afresh because the key may have moved pages
        since the log record was written.  The arguments are the logged
        fields (:func:`index_payload`); the edit is :meth:`_edit`'s.
        """
        if action in ("insert_many", "remove_many"):
            # remove_many is the undo of IB's insert_many.  A concurrent
            # transaction may have pseudo-deleted one of these keys since
            # IB inserted it (section 2.2.3 direct maintenance); that
            # tombstone is the *deleter's* history and must survive IB's
            # rollback -- physically removing it would let the resumed
            # build re-insert a key whose record is gone.
            inner = ("insert" if action == "insert_many"
                     else "remove_unless_tombstoned")
            for composite in key_value:
                self._apply(inner, composite)
            return
        self._apply(action, make_entry(key_value, rid), old_rid)

    def _apply(self, action: str, composite: CompositeKey,
               old_rid=None) -> None:
        """:meth:`apply_logical` of one entry, which goes in as it is."""
        leaf, path = self._traverse(composite, count=False)
        entry = leaf.find_exact(composite)
        if action == "replace_rid":
            # The entry to revive sits under its old RID, on whichever
            # leaf that descends to; both leaves are imaged.
            self.dirty.add(leaf.page_no)
            old = make_entry(entry_key(composite), old_rid)
            old_leaf, _path = self._traverse(old, count=False)
            old_entry = old_leaf.find_exact(old)
            if old_entry is not None:
                leaf, entry = old_leaf, old_entry
        self._edit(leaf, path, entry, action, composite, old_rid)

    # ------------------------------------------------------------------
    # recovery integration
    # ------------------------------------------------------------------

    def _register_operations(self) -> None:
        ops = self.system.log.operations
        if ops.knows("index.apply"):
            return
        ops.register("index.apply", redo=_redo_index)
        ops.register("index.split", redo=_redo_noop)
        ops.register("index.undo", redo=_reject_redo, undo=_undo_index)

    def force(self) -> None:
        """Write the pages dirtied since the last force to the stable image.

        Models "after all the dirty pages of the index have been written
        to disk" (section 3.2.4).  Log records at or below the recorded
        ``durable_lsn`` need no redo after a crash.
        """
        kind = fault_point(self.system.metrics, "btree.force")
        if kind is not None:
            # Torn write: the *whole* image lands on disk damaged but
            # detectably so (a checksum mismatch), then power fails.
            self._stable = StableImage({})
            self.media_damaged = True
            raise InjectedCrash(
                f"torn snapshot write of index {self.name}")
        # WAL rule for the image write: the images carry the effects of
        # every record up to last_lsn, so none of them may be lost in a
        # crash or the stable image gets ahead of the log (an unflushed
        # loser's index op would survive while its heap op and its very
        # existence vanish -- found by the crash sweep).
        self.system.log.flush(self.system.log.last_lsn)
        images = self._stable.pages
        pseudo_deleted = self.pseudo_deleted
        for page_no in self.dirty:
            page = self.pages[page_no]
            if isinstance(page, LeafPage):
                # A leaf image holds its entries and, apart, those of them
                # that are pseudo-deleted.
                entries = tuple(page.entries)
                images[page_no] = (
                    "leaf", page.capacity, page.next_leaf, entries,
                    tuple(filter(pseudo_deleted.__contains__, entries))
                    if pseudo_deleted else ())
            else:
                images[page_no] = ("branch", page.capacity,
                                   tuple(page.separators),
                                   tuple(page.children))
        # After a reset() every live page is dirty (allocated since) and
        # the stable file is cut back to the new, lower frontier.
        for page_no in range(self._next_page_no, self._stable.next_page_no):
            del images[page_no]
        self.pages_imaged += len(self.dirty)
        self.dirty.clear()
        self.durable_lsn = self.system.log.last_lsn
        self._stable = StableImage(images, self.root, self._next_page_no,
                                   self.durable_lsn)
        self.media_damaged = False
        self.system.metrics.incr("index.forces")
        fault_point(self.system.metrics, "btree.force.after")

    def crash(self) -> None:
        """Revert to the stable image: empty if never forced, or torn --
        ``media_damaged`` then makes restart pick a rebuild strategy
        (full log replay for NSF, run re-extraction for SF)."""
        self._load(self._stable)

    def reset(self) -> None:
        """Back to the empty tree, in memory: the stable image goes at
        the *next* force, and a crash before it restores the old one."""
        self._load(StableImage({}))
        self.media_damaged = False

    def stable_image(self) -> StableImage:
        """A dump: page images are immutable, so copying the map is one."""
        return self._stable._replace(pages=dict(self._stable.pages))

    def install_stable_image(self, image: StableImage) -> None:
        """Media restore: ``image`` becomes the stable image *and* the tree."""
        self._stable = image._replace(pages=dict(image.pages))
        self._load(image)

    def _load(self, image: StableImage) -> None:
        """Replace the live tree by ``image``; nothing is dirty after."""
        self.pages.clear()
        self._fences.clear()
        self.dirty.clear()
        self.pseudo_deleted.clear()
        metrics = self.system.metrics
        for no, (kind, capacity, *body) in image.pages.items():
            if kind == "leaf":
                page = LeafPage(no, capacity, metrics=metrics)
                page.next_leaf, entries, tombstones = body
                page.entries = list(entries)
                self.pseudo_deleted.update(tombstones)
            else:
                page = BranchPage(no, capacity, metrics=metrics)
                page.separators, page.children = map(list, body)
            self.pages[no] = page
        self.root = image.root
        self._next_page_no = image.next_page_no
        self.structure_version += 1
        self.durable_lsn = image.durable_lsn

    # ------------------------------------------------------------------
    # read access and audits
    # ------------------------------------------------------------------

    def search(self, key_value, rid: Optional[int] = None):
        """Generator: latch-and-read one entry (or first for key value)."""
        if rid is not None:
            composite = make_entry(key_value, rid)
            leaf, _path = self._traverse(composite)
        else:
            leaf, _entry = self._find_for_key_value(key_value)
            self.system.metrics.incr("index.traversals")
        if not self.system.sim.acquired(leaf.latch, SHARE):
            yield Acquire(leaf.latch, SHARE)
        try:
            if rid is not None:
                entry = leaf.find_exact(composite)
            else:
                entry = leaf.find_key_value(key_value)
        finally:
            leaf.latch.release(self.system.sim.current)
        if not self.system.sim.delayed(self.system.config.tree_visit_cost):
            yield Delay(self.system.config.tree_visit_cost)
        return entry

    def leaf_chain(self) -> Iterator[LeafPage]:
        """Leaves in key order (audit; no latching)."""
        if self.root is None:
            return
        node = self.pages[self.root]
        while isinstance(node, BranchPage):
            node = self.pages[node.children[0]]
        while node is not None:
            yield node
            node = (self.pages[node.next_leaf]
                    if node.next_leaf is not None else None)

    def entries_from(self, composite: CompositeKey
                     ) -> Iterator[CompositeKey]:
        """Entries at or above ``composite`` in key order, pseudo-deleted
        ones included (no latching): one uncounted descent, then the
        leaf chain."""
        if self.root is None:
            return
        leaf, _path = self._traverse(composite, count=False)
        yield from leaf.entries[leaf.position(composite):]
        while leaf.next_leaf is not None:
            leaf = self.pages[leaf.next_leaf]
            yield from leaf.entries

    def all_entries(self, include_pseudo_deleted: bool = False
                    ) -> Iterator[CompositeKey]:
        skip = () if include_pseudo_deleted else self.pseudo_deleted
        for leaf in self.leaf_chain():
            yield from filterfalse(skip.__contains__, leaf.entries)

    def key_count(self, include_pseudo_deleted: bool = False) -> int:
        return sum(1 for _ in self.all_entries(include_pseudo_deleted))

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def height(self) -> int:
        if self.root is None:
            return 0
        depth = 1
        node = self.pages[self.root]
        while isinstance(node, BranchPage):
            node = self.pages[node.children[0]]
            depth += 1
        return depth

    def clustering_factor(self) -> float:
        """Fraction of adjacent leaf pairs stored in physical order.

        Section 4: "consecutive keys being on consecutive pages on disk";
        1.0 means an ascending full scan reads the index file sequentially
        (the bottom-up ideal of section 2.3.1).
        """
        leaves = list(self.leaf_chain())
        if len(leaves) <= 1:
            return 1.0
        in_order = sum(1 for a, b in zip(leaves, leaves[1:])
                       if b.page_no > a.page_no)
        return in_order / (len(leaves) - 1)


# -- recovery handlers (generators) ----------------------------------------

#: Field positions of the one payload ``index.apply`` and ``index.undo``
#: read (:func:`index_payload`): index name, the redo's action, the
#: undo's action, then ``apply_logical``'s arguments -- key value (a
#: many-key action: the ``<key value, RID>`` list), RID, the RID a
#: ``replace_rid`` replaced.  Nothing reads what ``index.split`` logs.
IX_INDEX, IX_ACTION, IX_UNDO_ACTION, IX_KEY, IX_RID, IX_OLD_RID = range(6)


def index_payload(index: str, action: Optional[str],
                  undo_action: Optional[str], key_value, rid,
                  old_rid=None) -> tuple[tuple, int]:
    """The payload of one ``index.*`` log record and its logged size.

    ``action`` is what the redo half applies and ``undo_action`` what an
    undo applies (``None``: the record has no such half); a many-key
    action carries its ``<key value, RID>`` list as ``key_value`` and no
    ``rid``.  Each half is sized as if it carried the index name, its
    action and the key fields itself.
    """
    if rid is None:
        keyed = 8 * (len(key_value) or 1)
    else:
        keyed = 16 + value_size(key_value)
        if old_rid is not None:
            keyed += 24  # the replaced RID and its pseudo-delete flag
    half = OP_SIZE + len(index) + keyed
    size = HEADER_SIZE
    if action is not None:
        size += half + len(action)
    if undo_action is not None:
        size += half + len(undo_action)
    return (index, action, undo_action, key_value, rid, old_rid), size


def _redo_index(system: "System", lsn: int, _txn_id, _page_id, payload):
    tree = _tree_for(system, payload[IX_INDEX])
    if tree is None or lsn <= tree.durable_lsn:
        return
    tree.apply_logged(payload)
    system.metrics.incr("recovery.index_redos")
    return
    yield  # pragma: no cover - generator shape


def _redo_noop(system: "System", *_fields):
    return
    yield  # pragma: no cover


def _reject_redo(system: "System", *_fields):  # pragma: no cover
    raise AssertionError("index undo payloads are never redone")


def _undo_index(system: "System", txn: "Transaction", record: LogRecord):
    payload = record.payload
    index, undo_action = payload[IX_INDEX], payload[IX_UNDO_ACTION]
    keyed = payload[IX_KEY:]
    tree = _tree_for(system, index)
    if tree is not None and tree.media_damaged:
        # A damaged tree is rebuilt wholesale (log replay or run
        # re-extraction); logical undo against the empty shell would
        # plant stale entries.  The CLR is still written below so the
        # undo chain stays well-formed.
        tree = None
    if tree is not None:
        tree.apply_logical(undo_action, *keyed)
        system.metrics.incr("index.logical_undos")
    clr, size = index_payload(index, undo_action, None, *keyed)
    yield Delay(system.config.key_op_cost)
    return ("index.apply", clr), size, None, 0


def _tree_for(system: "System", index_name: str):
    descriptor = system.indexes.get(index_name)
    if descriptor is None:
        return None
    return getattr(descriptor, "tree", None)
