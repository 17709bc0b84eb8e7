"""Bottom-up B+-tree bulk loading.

Section 2.3.1 describes the build SF and the offline baseline use: "the
keys are sorted in key sequence and then inserted into the first index
page which acts as a root as well as a leaf.  When this leaf becomes full,
the next two index pages are allocated ... the tree grows in a bottom-up,
left to right fashion.  Needed new pages are always allocated from the end
of the index file which keeps growing" -- yielding a perfectly clustered
index (ascending key order == ascending page numbers).

The loader appends keys one at a time (so SF's pipelined final merge pass
can feed it, section 3.2.4) and supports:

* a fill factor leaving free space in each leaf for future inserts
  (section 2.2.3);
* *unlogged* operation -- SF's IB "does not write log records for the
  inserts of keys that it extracts from the records in the data pages"
  (section 3.1);
* checkpoint/resume: SF checkpoints the highest key and the right-most
  branch after forcing dirty pages; after a crash "the index pages can be
  reset in such a way that the keys higher than the checkpointed key
  disappear from the index" (section 3.2.4) -- :meth:`BulkLoader.resume`
  rebuilds loader state from a tree restored to that snapshot.
"""

from __future__ import annotations

from itertools import pairwise, starmap
from operator import eq
from typing import Optional, Sequence

from repro.btree.node import (BranchPage, CompositeKey, LeafPage, entry_key,
                              format_entry, make_entry)
from repro.btree.tree import BTree
from repro.errors import IndexBuildError, StorageError


class BulkLoader:
    """Append-only bottom-up builder over an (initially empty) tree."""

    def __init__(self, tree: BTree,
                 fill_free_fraction: Optional[float] = None) -> None:
        self.tree = tree
        if fill_free_fraction is None:
            fill_free_fraction = tree.system.config.fill_free_fraction
        if not 0.0 <= fill_free_fraction < 1.0:
            raise StorageError(
                f"fill_free_fraction {fill_free_fraction!r} out of range")
        self.leaf_fill = max(1, round(
            tree.leaf_capacity * (1.0 - fill_free_fraction)))
        self._current_leaf: Optional[LeafPage] = None
        #: right-most branch pages, *bottom* (leaf parents) first -- the
        #: paper's checkpointed "page-IDs of the rightmost branch of the
        #: index" (section 3.2.4)
        self._right_branch: list[BranchPage] = []
        self._last_composite: Optional[CompositeKey] = None
        self.keys_loaded = 0

    # -- appending ---------------------------------------------------------

    def append(self, key_value, rid) -> None:
        """Append the next key in sorted order."""
        self.extend((make_entry(key_value, rid),))

    def extend(self, composites: Sequence[CompositeKey]) -> None:
        """Append a batch of entries in sorted order: the order and
        unique-duplicate checks are made once for the batch, and the
        merger's entries themselves go in the leaves, sliced in a leaf at
        a time (section 2.3.1's bottom-up append)."""
        if not composites:
            return
        chained = [*composites] if self._last_composite is None \
            else [self._last_composite, *composites]
        if chained != sorted(chained) or (
                self.tree.unique and any(starmap(eq, pairwise(
                    map(entry_key, chained))))):
            raise self._rejection(composites)
        self._last_composite = composites[-1]
        leaf = self._current_leaf
        if leaf is None:
            leaf = self._current_leaf = self._first_leaf()
        total = len(composites)
        self.keys_loaded += total
        self.tree.system.metrics.incr("index.inserts.bulk", total)
        done = 0
        while True:
            self.tree.dirty.add(leaf.page_no)
            room = max(self.leaf_fill - len(leaf.entries), 0)
            leaf.entries += composites[done:done + room]
            done += room
            if done >= total:
                return
            leaf = self._next_leaf(composites[done])

    def _rejection(self, composites: Sequence[CompositeKey]
                   ) -> IndexBuildError:
        """Load the keys ahead of the first one out of order or repeating
        a unique key value, as key-at-a-time appends did; returns the
        error that one raised."""
        last = self._last_composite
        for at, composite in enumerate(composites):
            if last is not None and (composite < last or (
                    self.tree.unique
                    and entry_key(composite) == entry_key(last))):
                break
            last = composite
        self.extend(composites[:at])
        if composite < self._last_composite:
            return IndexBuildError(
                f"bulk load keys out of order: {format_entry(composite)} "
                f"after {format_entry(self._last_composite)}")
        return IndexBuildError(
            f"cannot build unique index {self.tree.name}: duplicate "
            f"key value {entry_key(composite)!r}")

    def _first_leaf(self) -> LeafPage:
        leaf = self.tree._ensure_root()
        if leaf.entries:
            raise IndexBuildError(
                "bulk load requires an empty tree (use resume() to "
                "continue an interrupted build)")
        return leaf

    def _next_leaf(self, composite: CompositeKey) -> LeafPage:
        """The current leaf reached its fill target: allocate the next
        right-most leaf.  ``composite``, the first key it will hold, is
        exactly the separator between the two."""
        old = self._current_leaf
        new_leaf = self.tree._allocate_leaf()
        old.next_leaf = new_leaf.page_no  # dirty already: extend() marked it
        self._current_leaf = new_leaf
        self.tree.structure_version += 1
        self._link_into_parent(old, new_leaf, composite, level=0)
        return new_leaf

    def _link_into_parent(self, left, right, separator: CompositeKey,
                          level: int) -> None:
        """Attach ``right`` to the right-most branch at ``level``."""
        tree = self.tree
        if level >= len(self._right_branch):
            # Grow the tree upward: a new root above the current top.
            new_root = tree._allocate_branch()
            new_root.separators = [separator]
            new_root.children = [left.page_no, right.page_no]
            tree.root = new_root.page_no
            self._right_branch.append(new_root)
            tree.system.metrics.incr("index.bulk_root_growths")
            return
        parent = self._right_branch[level]
        tree.dirty.add(parent.page_no)
        parent.separators.append(separator)
        parent.children.append(right.page_no)
        if parent.is_full:
            # Bottom-up branch overflow: start a fresh right-most branch
            # holding the overflowing child; nothing else moves (the
            # branch-level analogue of "no keys are moved from the
            # splitting page", section 2.3.1).
            new_branch = tree._allocate_branch()
            push_up = parent.separators.pop()
            moved_child = parent.children.pop()
            new_branch.children = [moved_child]
            self._right_branch[level] = new_branch
            self._link_into_parent(parent, new_branch, push_up, level + 1)

    # -- finishing ----------------------------------------------------------------

    def finish(self) -> None:
        """Complete the build.  (Exists for symmetry and future hooks;
        bottom-up state is consistent after every append.)"""
        self.tree.system.metrics.incr("index.bulk_loads_finished")

    # -- resume after crash ------------------------------------------------------

    @classmethod
    def resume(cls, tree: BTree,
               fill_free_fraction: Optional[float] = None) -> "BulkLoader":
        """Rebuild loader state over a tree restored from a checkpoint.

        Walks the right-most path of the restored tree (exactly what SF
        checkpointed) and continues appending after the highest surviving
        key.
        """
        loader = cls(tree, fill_free_fraction=fill_free_fraction)
        if tree.root is None:
            return loader
        node = tree.pages[tree.root]
        branches: list[BranchPage] = []
        while isinstance(node, BranchPage):
            branches.append(node)
            node = tree.pages[node.children[-1]]
        loader._right_branch = list(reversed(branches))
        loader._current_leaf = node
        if node.entries:
            loader._last_composite = node.entries[-1]
        loader.keys_loaded = tree.key_count(include_pseudo_deleted=True)
        return loader

    @property
    def highest_key(self) -> Optional[CompositeKey]:
        return self._last_composite
