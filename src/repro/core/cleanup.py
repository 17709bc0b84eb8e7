"""Background garbage collection of pseudo-deleted keys (section 2.2.4).

"After IB completes its processing, garbage collection of the
pseudo-deleted keys in the index can be scheduled as a background
activity ...  Scan the leaf pages.  For each page, latch the page and
check if there are any pseudo-deleted keys.  If there are, then apply the
Commit_LSN check.  If it is successful, then garbage collect those keys;
otherwise, for each pseudo-deleted key, request a conditional instant
share lock on it.  If the lock is granted, then delete the key; otherwise,
skip it since the key's deletion is probably uncommitted."

The Commit_LSN fast path is modelled at tree granularity: when the tree's
last modification LSN is below the system's Commit_LSN, every
pseudo-delete on it is committed and no locks are needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.btree.node import entry_key, entry_rid
from repro.core.descriptor import IndexDescriptor
from repro.sim.kernel import Acquire, Delay
from repro.sim.latch import EXCLUSIVE

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


def cleanup_pseudo_deleted(system: "System", descriptor: IndexDescriptor):
    """Generator process body: collect every committed pseudo-deleted key.

    Returns the number of keys physically removed.
    """
    tree = descriptor.tree
    pseudo_deleted = tree.pseudo_deleted
    txn = system.txns.begin(f"gc-{descriptor.name}")
    removed = 0
    skipped = 0
    # Commit_LSN check at tree granularity: when every log record below
    # Commit_LSN belongs to a terminated transaction and nothing newer
    # touched this index, all pseudo-deletes are committed.  The cheap
    # conservative test: no transaction is active at all (other than us).
    commit_lsn = system.txns.commit_lsn()
    fast_path = commit_lsn > system.log.last_lsn \
        or len(system.txns.active) <= 1
    for leaf_no in [leaf.page_no for leaf in tree.leaf_chain()]:
        leaf = tree.pages.get(leaf_no)
        if leaf is None or not hasattr(leaf, "entries"):
            continue  # restructured since we planned the scan
        yield Acquire(leaf.latch, EXCLUSIVE)
        before = removed + skipped
        try:
            doomed = []
            for entry in list(filter(pseudo_deleted.__contains__,
                                     leaf.entries)):
                if fast_path:
                    system.metrics.incr("gc.commit_lsn_fast_path")
                    doomed.append(entry)
                    continue
                granted = yield from txn.lock(
                    ("rec", descriptor.table.name, entry_rid(entry)), "S",
                    conditional=True, instant=True)
                if granted:
                    doomed.append(entry)
                else:
                    skipped += 1  # deletion probably uncommitted: skip
            for entry in doomed:
                # still there and still pseudo-deleted: a lock probe
                # yields, and a rollback's undo takes no latch
                if leaf.find_exact(entry) is not None \
                        and entry in pseudo_deleted:
                    removed += 1
                    tree._change(txn, leaf, None, entry, "physical_delete",
                                 None, entry_key(entry), entry_rid(entry),
                                 None, writer="gc")
        finally:
            leaf.latch.release(system.sim.current)
        if removed + skipped > before:  # this leaf collected or skipped
            yield Delay(system.config.key_op_cost)
    yield from txn.commit()
    system.metrics.incr("gc.keys_removed", removed)
    system.metrics.incr("gc.keys_skipped", skipped)
    return removed
