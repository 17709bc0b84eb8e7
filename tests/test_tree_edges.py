"""Edge-case tests for the B+-tree: boundaries, cursors, drain ops."""

import pytest

from repro.btree import BTree, BulkLoader, IBCursor, audit_tree
from repro.errors import IndexBuildError, StorageError
from repro.storage import RID
from repro.system import System, SystemConfig


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def make_tree(unique=False, leaf_capacity=4):
    system = System(SystemConfig(leaf_capacity=leaf_capacity,
                                 branch_capacity=4))
    system.create_table("t", ["k", "p"])
    tree = BTree(system, "idx", "t", unique=unique)
    return system, tree


def bulk(tree, keys):
    loader = BulkLoader(tree)
    for kv, rid in keys:
        loader.append((kv,), RID(*rid))
    loader.finish()


# -- search boundaries -------------------------------------------------------


def test_search_key_value_at_leaf_boundary():
    """The only entry for a key value can be the first entry of the next
    leaf (its composite is the separator); search must still find it."""
    system, tree = make_tree(unique=True, leaf_capacity=2)
    bulk(tree, [(k, (0, k)) for k in range(10)])
    audit_tree(tree)

    def body():
        txn = system.txns.begin()
        found = []
        for k in range(10):
            entry = yield from tree.search((k,))
            found.append(entry is not None and entry[0] == k)
        yield from txn.commit()
        return found

    assert all(drive(system, body()))


def test_search_exact_composite():
    system, tree = make_tree(leaf_capacity=2)
    bulk(tree, [(5, (0, i)) for i in range(6)])

    def body():
        txn = system.txns.begin()
        hit = yield from tree.search((5,), RID(0, 3))
        miss = yield from tree.search((5,), RID(0, 9))
        yield from txn.commit()
        return hit, miss

    hit, miss = drive(system, body())
    assert hit is not None and hit[1] == RID(0, 3)
    assert miss is None


def test_unique_insert_conflict_across_leaf_boundary():
    """Existing <K,R> at the head of the next leaf must still raise a
    unique violation for an insert of <K,R'>."""
    system, tree = make_tree(unique=True, leaf_capacity=2)
    bulk(tree, [(k, (0, k)) for k in range(8)])

    from repro.errors import UniqueViolationError

    def body():
        txn = system.txns.begin()
        try:
            # key 4 exists somewhere at a leaf boundary with capacity 2
            yield from tree.txn_insert_key(txn, (4,), RID(9, 9),
                                           during_build=True)
        finally:
            yield from txn.rollback()

    with pytest.raises(UniqueViolationError):
        drive(system, body())


# -- IB cursor ---------------------------------------------------------------------


def test_cursor_invalidated_by_structure_change():
    system, tree = make_tree(leaf_capacity=4)
    cursor = IBCursor()

    def body():
        ib = system.txns.begin("IB")
        yield from tree.ib_insert_batch(ib, [(k, (0, k))
                                             for k in range(3)], cursor)
        assert cursor.leaf_no is not None
        version = cursor.version
        # an out-of-band split invalidates the remembered path
        tree.structure_version += 1
        assert tree._cursor_leaf(cursor, (2, RID(0, 2))) is None
        yield from ib.commit()
        return version

    drive(system, body())


def test_cursor_rejects_out_of_range_keys():
    system, tree = make_tree(leaf_capacity=4)
    bulk(tree, [(k, (0, k)) for k in range(16)])
    cursor = IBCursor()
    leaves = list(tree.leaf_chain())
    middle = leaves[len(leaves) // 2]
    # a cursor is set by a descent, which is what memoises the fences
    inside = middle.entries[0]
    assert tree._locate_ib_leaf(cursor, inside) is middle
    # keys outside the middle leaf's separator fences reject the cache
    assert tree._cursor_leaf(cursor, (-1, RID(0, 0))) is None
    assert tree._cursor_leaf(cursor, (99, RID(0, 0))) is None
    # a key inside its fences reuses it
    assert tree._cursor_leaf(cursor, inside) is middle
    # the leftmost leaf's range is lower-unbounded
    assert tree._locate_ib_leaf(cursor, (0, RID(0, 0))) is leaves[0]
    assert tree._cursor_leaf(cursor, (-1, RID(0, 0))) is leaves[0]
    # a leaf handle that no descent produced is refused, not searched for
    cursor.leaf_no = leaves[-1].page_no
    with pytest.raises(StorageError):
        tree._cursor_leaf(cursor, (99, RID(0, 0)))


# -- SF drain ops -------------------------------------------------------------------------


def test_sf_drain_apply_insert_delete_roundtrip():
    system, tree = make_tree(leaf_capacity=4)
    bulk(tree, [(k, (0, k)) for k in range(8)])

    def body():
        ib = system.txns.begin("IB")
        yield from tree.sf_drain_apply_batch(
            ib, [("insert", (99,), RID(1, 0))])
        assert tree.key_count() == 9
        # idempotent: re-applying the same insert is a no-op
        yield from tree.sf_drain_apply_batch(
            ib, [("insert", (99,), RID(1, 0))])
        assert tree.key_count() == 9
        yield from tree.sf_drain_apply_batch(
            ib, [("delete", (99,), RID(1, 0))])
        assert tree.key_count() == 8
        # deleting a missing key is a no-op
        yield from tree.sf_drain_apply_batch(
            ib, [("delete", (99,), RID(1, 0))])
        assert tree.key_count() == 8
        yield from ib.commit()

    drive(system, body())
    audit_tree(tree)


def test_sf_drain_logs_undo_redo():
    system, tree = make_tree()

    def body():
        ib = system.txns.begin("IB")
        yield from tree.sf_drain_apply_batch(ib, [("insert", (5,), RID(0, 0))])
        yield from ib.commit()

    drive(system, body())
    record = next(r for r in system.log.scan()
                  if r.redo and r.redo[0] == "index.apply")
    assert record.is_undo_redo  # "IB writes undo-redo log records" §3.2.5


def test_verify_unique_detects_transient_duplicates():
    system, tree = make_tree(unique=True)

    def body():
        ib = system.txns.begin("IB")
        yield from tree.sf_drain_apply_batch(ib, [("insert", (5,), RID(0, 0))])
        yield from tree.sf_drain_apply_batch(ib, [("insert", (5,), RID(0, 1))])
        yield from ib.commit()

    drive(system, body())
    with pytest.raises(IndexBuildError):
        tree.verify_unique()


def test_deep_tree_structure():
    system, tree = make_tree(leaf_capacity=2)
    tree.branch_capacity = 2
    bulk(tree, [(k, (0, k % 16)) for k in range(200)])
    stats = audit_tree(tree)
    assert stats["height"] >= 5
    assert stats["entries"] == 200
    assert tree.clustering_factor() == 1.0


def test_height_property():
    system, tree = make_tree()
    assert tree.height == 0
    bulk(tree, [(1, (0, 0))])
    assert tree.height == 1


def test_empty_tree_operations():
    system, tree = make_tree()

    def body():
        txn = system.txns.begin()
        entry = yield from tree.search(5)
        yield from tree.txn_delete_key(txn, (5,), RID(0, 0),
                                       during_build=True)
        yield from txn.commit()
        return entry

    entry = drive(system, body())
    assert entry is None
    # the delete of a missing key left a tombstone
    assert tree.key_count(include_pseudo_deleted=True) == 1
    assert tree.clustering_factor() == 1.0  # single leaf


def test_bulk_load_into_used_tree_requires_resume():
    system, tree = make_tree()
    bulk(tree, [(1, (0, 0))])
    loader = BulkLoader(tree)
    with pytest.raises(IndexBuildError):
        loader.append((2,), RID(0, 1))
