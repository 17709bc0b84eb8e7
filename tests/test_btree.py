"""Unit tests for the B+-tree (repro.btree)."""

import pytest

from repro.btree import BTree, BulkLoader, IBCursor, InsertOutcome, audit_tree
from repro.btree.tree import IX_ACTION, IX_INDEX, IX_KEY
from repro.errors import IndexBuildError, UniqueViolationError
from repro.storage import RID
from repro.system import System, SystemConfig


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def make_tree(unique=False, leaf_capacity=4, branch_capacity=4):
    system = System(SystemConfig(leaf_capacity=leaf_capacity,
                                 branch_capacity=branch_capacity))
    system.create_table("t", ["k", "v"])
    tree = BTree(system, "idx", "t", unique=unique)
    return system, tree


def insert_keys(system, tree, keys, during_build=True):
    def body():
        txn = system.txns.begin()
        outcomes = []
        for kv, rid in keys:
            out = yield from tree.txn_insert_key(
                txn, (kv,), rid, during_build=during_build)
            outcomes.append(out)
        yield from txn.commit()
        return outcomes

    return drive(system, body())


def test_insert_and_search_single_key():
    system, tree = make_tree()
    insert_keys(system, tree, [(5, RID(0, 0))])

    def body():
        txn = system.txns.begin()
        entry = yield from tree.search((5,), RID(0, 0))
        yield from txn.commit()
        return entry

    entry = drive(system, body())
    assert entry is not None and entry[0] == 5
    audit_tree(tree)


def test_many_inserts_split_and_stay_sorted():
    system, tree = make_tree(leaf_capacity=4)
    keys = [(k, RID(k // 4, k % 4)) for k in range(50)]
    system.rng.shuffle(keys)
    insert_keys(system, tree, keys)
    stats = audit_tree(tree)
    assert stats["entries"] == 50
    assert stats["height"] >= 2
    got = [e[0] for e in tree.all_entries()]
    assert got == sorted(got) and len(got) == 50


def test_duplicate_insert_is_noop_with_undo_only_log():
    system, tree = make_tree()
    outcomes = insert_keys(system, tree, [(5, RID(0, 0)), (5, RID(0, 0))])
    assert outcomes == [InsertOutcome.INSERTED, InsertOutcome.DUPLICATE_NOOP]
    assert tree.key_count() == 1
    undo_only = [r for r in system.log.scan()
                 if r.is_undo_only and r.payload[IX_INDEX] == "idx"]
    assert len(undo_only) == 1


def test_nonunique_allows_same_key_different_rid():
    system, tree = make_tree()
    outcomes = insert_keys(system, tree, [(5, RID(0, 0)), (5, RID(0, 1))])
    assert outcomes == [InsertOutcome.INSERTED, InsertOutcome.INSERTED]
    assert tree.key_count() == 2
    audit_tree(tree)


def test_pseudo_delete_then_reinsert_reactivates():
    system, tree = make_tree()

    def body():
        txn = system.txns.begin()
        yield from tree.txn_insert_key(txn, (5,), RID(0, 0), during_build=True)
        yield from tree.txn_delete_key(txn, (5,), RID(0, 0), during_build=True)
        assert tree.key_count() == 0
        assert tree.key_count(include_pseudo_deleted=True) == 1
        out = yield from tree.txn_insert_key(txn, (5,), RID(0, 0),
                                             during_build=True)
        yield from txn.commit()
        return out

    out = drive(system, body())
    assert out is InsertOutcome.REACTIVATED
    assert tree.key_count() == 1


def test_delete_of_missing_key_inserts_tombstone():
    system, tree = make_tree()

    def body():
        txn = system.txns.begin()
        yield from tree.txn_delete_key(txn, (9,), RID(1, 1), during_build=True)
        yield from txn.commit()

    drive(system, body())
    assert tree.key_count() == 0
    assert tree.key_count(include_pseudo_deleted=True) == 1
    assert system.metrics.get("index.tombstone_inserts") == 1


def test_physical_delete_outside_build():
    system, tree = make_tree()
    insert_keys(system, tree, [(k, RID(0, k)) for k in range(6)],
                during_build=False)

    def body():
        txn = system.txns.begin()
        yield from tree.txn_delete_key(txn, (3,), RID(0, 3),
                                       during_build=False)
        yield from txn.commit()

    drive(system, body())
    assert tree.key_count(include_pseudo_deleted=True) == 5
    assert system.metrics.get("index.physical_deletes") == 1
    assert system.metrics.get("index.nextkey_locks") > 0


def test_no_next_key_locks_during_build():
    system, tree = make_tree()
    insert_keys(system, tree, [(k, RID(0, k)) for k in range(6)],
                during_build=True)
    assert system.metrics.get("index.nextkey_locks") == 0


def test_unique_violation_on_committed_duplicate():
    system, tree = make_tree(unique=True)
    insert_keys(system, tree, [(5, RID(0, 0))])

    def body():
        txn = system.txns.begin()
        try:
            yield from tree.txn_insert_key(txn, (5,), RID(0, 1),
                                           during_build=True)
        finally:
            yield from txn.rollback()

    with pytest.raises(UniqueViolationError):
        drive(system, body())


def test_unique_tombstone_revived_with_new_rid():
    """Section 2.2.3: T2 finds the pseudo-deleted <K,R> of a terminated
    transaction and replaces R with R1."""
    system, tree = make_tree(unique=True)

    def body():
        t1 = system.txns.begin()
        yield from tree.txn_insert_key(t1, (5,), RID(0, 0), during_build=True)
        yield from tree.txn_delete_key(t1, (5,), RID(0, 0), during_build=True)
        yield from t1.commit()
        t2 = system.txns.begin()
        out = yield from tree.txn_insert_key(t2, (5,), RID(0, 1),
                                             during_build=True)
        yield from t2.commit()
        return out

    out = drive(system, body())
    assert out is InsertOutcome.REPLACED_RID
    entries = list(tree.all_entries())
    assert len(entries) == 1
    assert entries[0][1] == RID(0, 1)
    assert entries[0] not in tree.pseudo_deleted


def test_unique_insert_waits_for_uncommitted_deleter():
    """An insert of a key value whose entry belongs to an *uncommitted*
    deleter must wait for that transaction's fate, not error."""
    system, tree = make_tree(unique=True)
    insert_keys(system, tree, [(5, RID(0, 0))])
    timeline = []

    def deleter():
        txn = system.txns.begin("deleter")
        # The deleter holds the record lock, as the record manager would.
        yield from txn.lock(("rec", "t", RID(0, 0)), "X")
        yield from tree.txn_delete_key(txn, (5,), RID(0, 0),
                                       during_build=True)
        from repro.sim import Delay
        yield Delay(20)
        yield from txn.commit()
        timeline.append(("deleter-committed", system.now()))

    def inserter():
        from repro.sim import Delay
        yield Delay(1)
        txn = system.txns.begin("inserter")
        out = yield from tree.txn_insert_key(txn, (5,), RID(0, 1),
                                             during_build=True)
        timeline.append(("inserted", system.now(), out))
        yield from txn.commit()

    system.spawn(deleter(), name="d")
    system.spawn(inserter(), name="i")
    system.run()
    assert timeline[0][0] == "deleter-committed"
    assert timeline[1][0] == "inserted"
    assert timeline[1][2] is InsertOutcome.REPLACED_RID


def test_rollback_of_insert_pseudo_deletes_key():
    system, tree = make_tree()
    system.indexes["idx"] = type("D", (), {"tree": tree})()

    def body():
        txn = system.txns.begin()
        yield from tree.txn_insert_key(txn, (5,), RID(0, 0), during_build=True)
        yield from txn.rollback()

    drive(system, body())
    assert tree.key_count() == 0
    assert tree.key_count(include_pseudo_deleted=True) == 1


def test_rollback_of_delete_reactivates_key():
    system, tree = make_tree()
    system.indexes["idx"] = type("D", (), {"tree": tree})()
    insert_keys(system, tree, [(5, RID(0, 0))])

    def body():
        txn = system.txns.begin()
        yield from tree.txn_delete_key(txn, (5,), RID(0, 0), during_build=True)
        yield from txn.rollback()

    drive(system, body())
    assert tree.key_count() == 1


def test_rollback_of_tombstone_insert_reactivates():
    """Section 2.2.2: if the deleter of a never-indexed key rolls back,
    the undo places the key in the *inserted* state."""
    system, tree = make_tree()
    system.indexes["idx"] = type("D", (), {"tree": tree})()

    def body():
        txn = system.txns.begin()
        yield from tree.txn_delete_key(txn, (9,), RID(1, 1), during_build=True)
        yield from txn.rollback()

    drive(system, body())
    entries = list(tree.all_entries())
    assert len(entries) == 1 and entries[0] not in tree.pseudo_deleted


# -- IB batch inserts ------------------------------------------------------


def test_ib_batch_insert_sorted_keys():
    system, tree = make_tree(leaf_capacity=4)
    keys = [(k, RID(k // 16, k % 16)) for k in range(40)]

    def body():
        ib = system.txns.begin("IB")
        cursor = IBCursor()
        count = yield from tree.ib_insert_batch(ib, keys, cursor)
        yield from ib.commit()
        return count

    count = drive(system, body())
    assert count == 40
    audit_tree(tree)
    assert tree.key_count() == 40
    # remembered path: far fewer traversals than keys (the cursor plus
    # latch-group batching make descents per key vanishingly rare)
    assert system.metrics.get("index.traversals") < 5
    assert system.metrics.get("index.ib_path_reuses") > 5


def test_ib_duplicate_rejected_without_logging():
    system, tree = make_tree()
    insert_keys(system, tree, [(5, RID(0, 0))])
    before = system.metrics.get("wal.records.ib")

    def body():
        ib = system.txns.begin("IB")
        cursor = IBCursor()
        count = yield from tree.ib_insert_batch(ib, [(5, RID(0, 0))], cursor)
        yield from ib.commit()
        return count

    count = drive(system, body())
    assert count == 0
    assert system.metrics.get("index.duplicate_rejections.ib") == 1
    assert system.metrics.get("wal.records.ib") == before


def test_ib_insert_rejected_when_tombstone_present():
    system, tree = make_tree()

    def body():
        txn = system.txns.begin()
        yield from tree.txn_delete_key(txn, (5,), RID(0, 0), during_build=True)
        yield from txn.commit()
        ib = system.txns.begin("IB")
        count = yield from tree.ib_insert_batch(ib, [(5, RID(0, 0))],
                                                IBCursor())
        yield from ib.commit()
        return count

    count = drive(system, body())
    assert count == 0
    assert tree.key_count() == 0  # still only the tombstone


def test_ib_specialized_split_moves_only_higher_keys():
    """Section 2.3.1: IB appends ascending keys; with the specialized
    split the tree stays well clustered even though inserts go through
    the top-down path."""
    system, tree = make_tree(leaf_capacity=4)
    keys = [(k, RID(0, k % 16)) for k in range(32)]

    def body():
        ib = system.txns.begin("IB")
        count = yield from tree.ib_insert_batch(ib, keys, IBCursor())
        yield from ib.commit()
        return count

    drive(system, body())
    audit_tree(tree)
    # ascending appends + specialized split => near-perfect clustering
    assert tree.clustering_factor() == 1.0
    # and no keys ever moved between pages
    assert system.metrics.get("index.keys_moved") == 0


def test_ib_multi_key_log_records():
    system, tree = make_tree(leaf_capacity=8)
    keys = [(k, RID(0, k % 16)) for k in range(8)]

    def body():
        ib = system.txns.begin("IB")
        yield from tree.ib_insert_batch(ib, keys, IBCursor())
        yield from ib.commit()

    drive(system, body())
    ib_updates = [r for r in system.log.scan()
                  if r.kind.value == "update"
                  and r.redo and r.redo[1][IX_ACTION] == "insert_many"]
    assert len(ib_updates) < 8  # batched, not one per key
    total_keys = sum(len(r.redo[1][IX_KEY]) for r in ib_updates)
    assert total_keys == 8


# -- bulk loading --------------------------------------------------------------


def test_bulk_load_perfect_clustering_and_structure():
    system, tree = make_tree(leaf_capacity=4)
    loader = BulkLoader(tree)
    for k in range(100):
        loader.append((k,), RID(k // 16, k % 16))
    loader.finish()
    stats = audit_tree(tree)
    assert stats["entries"] == 100
    assert tree.clustering_factor() == 1.0
    got = [e[0] for e in tree.all_entries()]
    assert got == list(range(100))


def test_bulk_load_fill_factor_leaves_space():
    system, tree = make_tree(leaf_capacity=10)
    loader = BulkLoader(tree, fill_free_fraction=0.5)
    for k in range(20):
        loader.append((k,), RID(0, k % 16))
    loader.finish()
    leaves = list(tree.leaf_chain())
    assert all(len(leaf.entries) <= 5 for leaf in leaves)
    audit_tree(tree)


def test_bulk_load_rejects_out_of_order():
    system, tree = make_tree()
    loader = BulkLoader(tree)
    loader.append((5,), RID(0, 0))
    with pytest.raises(IndexBuildError):
        loader.append((3,), RID(0, 1))


def test_bulk_load_unique_rejects_duplicate_key_value():
    system, tree = make_tree(unique=True)
    loader = BulkLoader(tree)
    loader.append((5,), RID(0, 0))
    with pytest.raises(IndexBuildError):
        loader.append((5,), RID(0, 1))


def test_bulk_load_resume_continues_after_checkpoint():
    system, tree = make_tree(leaf_capacity=4)
    loader = BulkLoader(tree)
    for k in range(30):
        loader.append((k,), RID(0, k % 16))
    tree.force()  # SF's index checkpoint
    for k in range(30, 60):
        loader.append((k,), RID(1, k % 16))
    tree.crash()  # lose everything after the checkpoint
    assert tree.key_count() == 30
    loader = BulkLoader.resume(tree)
    assert loader.highest_key == (29, RID(0, 29 % 16))
    for k in range(30, 60):
        loader.append((k,), RID(1, k % 16))
    loader.finish()
    audit_tree(tree)
    assert [e[0] for e in tree.all_entries()] == list(range(60))
    assert tree.clustering_factor() == 1.0


def test_crash_without_snapshot_empties_tree():
    system, tree = make_tree()
    insert_keys(system, tree, [(1, RID(0, 0))])
    tree.crash()
    assert tree.key_count(include_pseudo_deleted=True) == 0
    assert tree.root is None


# -- the pseudo-delete bit: one set of composites per tree -------------------


def delete_keys(system, tree, keys):
    """Pseudo-delete ``keys`` (an NSF-build delete) in one committed
    transaction."""
    def body():
        txn = system.txns.begin()
        for kv, rid in keys:
            yield from tree.txn_delete_key(txn, (kv,), rid,
                                           during_build=True)
        yield from txn.commit()

    drive(system, body())


def holder_of(tree, composite):
    return next(leaf for leaf in tree.leaf_chain()
                if composite in leaf.entries)


def test_a_normal_split_moves_a_tombstone_with_its_bit():
    system, tree = make_tree(leaf_capacity=4)
    insert_keys(system, tree, [(k, RID(0, k)) for k in range(4)])
    delete_keys(system, tree, [(3, RID(0, 3))])
    first = holder_of(tree, (3, RID(0, 3)))
    insert_keys(system, tree, [(4, RID(0, 4))])  # the full leaf splits
    assert system.metrics.get("index.splits") == 1
    assert holder_of(tree, (3, RID(0, 3))) is not first
    assert tree.pseudo_deleted == {(3, RID(0, 3))}
    assert [e[0] for e in tree.all_entries()] == [0, 1, 2, 4]
    assert tree.key_count(include_pseudo_deleted=True) == 5
    audit_tree(tree)


def test_ibs_specialized_split_moves_a_tombstone_with_its_bit():
    """IB's split moves the keys above its insert point, a pseudo-deleted
    one among them, to the new leaf; the bit goes along."""
    system, tree = make_tree(leaf_capacity=4)
    insert_keys(system, tree, [(k, RID(0, k)) for k in (0, 1, 5, 6)])
    delete_keys(system, tree, [(6, RID(0, 6))])
    first = holder_of(tree, (6, RID(0, 6)))

    def body():
        ib = system.txns.begin("IB")
        count = yield from tree.ib_insert_batch(ib, [(2, RID(0, 2))],
                                                IBCursor())
        yield from ib.commit()
        return count

    assert drive(system, body()) == 1
    assert system.metrics.get("index.splits.specialized") == 1
    moved = holder_of(tree, (6, RID(0, 6)))
    assert moved is not first and moved.entries[0] == (5, RID(0, 5))
    assert tree.pseudo_deleted == {(6, RID(0, 6))}
    assert [e[0] for e in tree.all_entries()] == [0, 1, 2, 5]
    audit_tree(tree)


def test_the_bits_survive_force_and_crash_as_forced():
    """A leaf's stable image lists its pseudo-deleted entries; a crash
    reloads the bits as of the force, not as of the crash."""
    system, tree = make_tree(leaf_capacity=4)
    insert_keys(system, tree, [(k, RID(0, k)) for k in range(10)])
    delete_keys(system, tree, [(2, RID(0, 2)), (7, RID(0, 7))])
    tree.force()
    images = [image for image in tree.stable_image().pages.values()
              if image[0] == "leaf"]
    assert sorted(member for image in images for member in image[4]) \
        == [(2, RID(0, 2)), (7, RID(0, 7))]
    delete_keys(system, tree, [(4, RID(0, 4))])
    insert_keys(system, tree, [(2, RID(0, 2))])  # reactivates <2>
    assert tree.pseudo_deleted == {(4, RID(0, 4)), (7, RID(0, 7))}
    tree.crash()
    assert tree.pseudo_deleted == {(2, RID(0, 2)), (7, RID(0, 7))}
    assert [e[0] for e in tree.all_entries()] == [0, 1, 3, 4, 5, 6, 8, 9]
    audit_tree(tree)
    restored = BTree(system, "copy", "t")
    restored.install_stable_image(tree.stable_image())
    assert restored.pseudo_deleted == tree.pseudo_deleted


def test_replace_rid_then_restore_entry_round_trips_the_bit():
    """A unique insert revives a terminated deleter's tombstone under its
    own RID (REPLACED_RID); its rollback's restore_entry puts back the
    old RID, pseudo-deleted -- and a redo of either is a no-op."""
    system, tree = make_tree(unique=True)
    system.indexes["idx"] = type("D", (), {"tree": tree})()
    insert_keys(system, tree, [(5, RID(0, 0))])
    delete_keys(system, tree, [(5, RID(0, 0))])
    tombstone = [(5, RID(0, 0))]

    def body():
        txn = system.txns.begin()
        out = yield from tree.txn_insert_key(txn, (5,), RID(0, 1),
                                             during_build=True)
        revived = (list(tree.all_entries(include_pseudo_deleted=True)),
                   set(tree.pseudo_deleted))
        yield from txn.rollback()
        return out, revived

    out, (entries, bits) = drive(system, body())
    assert out is InsertOutcome.REPLACED_RID
    assert entries == [(5, RID(0, 1))] and bits == set()
    assert list(tree.all_entries(include_pseudo_deleted=True)) == tombstone
    assert tree.pseudo_deleted == set(tombstone)
    tree.apply_logical("restore_entry", (5,), RID(0, 1), RID(0, 0))
    assert tree.pseudo_deleted == set(tombstone)
    tree.apply_logical("replace_rid", (5,), RID(0, 1), RID(0, 0))
    tree.apply_logical("replace_rid", (5,), RID(0, 1), RID(0, 0))
    assert list(tree.all_entries()) == [(5, RID(0, 1))]
    assert tree.pseudo_deleted == set()
    audit_tree(tree)
