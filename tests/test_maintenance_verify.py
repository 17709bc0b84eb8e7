"""Unit tests for maintenance visibility, descriptors, audits, cleanup."""

import pytest

from repro.btree import BTree, audit_tree
from repro.btree.audit import TreeAuditError
from repro.btree.node import entry_key, entry_rid
from repro.core import (
    IndexSpec,
    IndexState,
    NSFIndexBuilder,
    cleanup_pseudo_deleted,
    install_maintenance,
)
from repro.core.descriptor import IndexDescriptor
from repro.core.maintenance import BuildContext, NSF_MODE, SF_MODE
from repro.errors import StorageError
from repro.sidefile import SideFile
from repro.storage import RID, Record
from repro.system import System, SystemConfig
from repro.verify import ConsistencyError, audit_index, consistency


def drive(system, body):
    proc = system.spawn(body, name="driver")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def make_stage(mode=SF_MODE, current_rid=RID(2, 0)):
    system = System(SystemConfig(page_capacity=4))
    table = system.create_table("t", ["k", "p"])
    descriptor = IndexDescriptor(system, table, "idx", ["k"])
    descriptor.build_mode = mode
    descriptor.attach()
    maintenance = install_maintenance(system, table)
    context = BuildContext(mode=mode, descriptors=[descriptor],
                           current_rid=current_rid)
    system.builds[table.name] = context
    if mode == SF_MODE:
        system.sidefiles["idx"] = SideFile(system, "idx")
    return system, table, descriptor, maintenance, context


# -- visibility ---------------------------------------------------------------


def test_sf_visibility_follows_current_rid():
    system, table, descriptor, maintenance, context = make_stage()
    txn = system.txns.begin()
    assert maintenance.visible_count(txn, RID(0, 0)) == 1   # behind scan
    assert maintenance.visible_count(txn, RID(1, 3)) == 1
    assert maintenance.visible_count(txn, RID(2, 0)) == 0   # at scan
    assert maintenance.visible_count(txn, RID(5, 0)) == 0   # ahead


def test_nsf_always_visible():
    system, table, descriptor, maintenance, context = make_stage(
        mode=NSF_MODE)
    txn = system.txns.begin()
    assert maintenance.visible_count(txn, RID(99, 0)) == 1


def test_available_index_always_visible():
    system, table, descriptor, maintenance, context = make_stage()
    descriptor.state = IndexState.AVAILABLE
    txn = system.txns.begin()
    assert maintenance.visible_count(txn, RID(99, 0)) == 1


def test_cancelled_index_invisible():
    system, table, descriptor, maintenance, context = make_stage(
        mode=NSF_MODE)
    descriptor.state = IndexState.CANCELLED
    txn = system.txns.begin()
    assert maintenance.visible_count(txn, RID(0, 0)) == 0


def test_prepare_routes_sf_to_sidefile_atomically():
    system, table, descriptor, maintenance, context = make_stage()
    txn = system.txns.begin()
    record = Record((7, "x"))
    snapshot = maintenance.prepare(txn, RID(0, 0), None, record)
    assert snapshot.count == 1
    assert snapshot.sf_routed == ["idx"]
    assert snapshot.direct == []
    assert len(system.sidefiles["idx"]) == 1  # appended synchronously


def test_prepare_invisible_touches_nothing():
    system, table, descriptor, maintenance, context = make_stage()
    txn = system.txns.begin()
    snapshot = maintenance.prepare(txn, RID(9, 0), None,
                                   Record((7, "x")))
    assert snapshot.count == 0
    assert snapshot.sf_routed == []
    assert len(system.sidefiles["idx"]) == 0


def test_prepare_update_unchanged_key_is_noop():
    system, table, descriptor, maintenance, context = make_stage()
    txn = system.txns.begin()
    snapshot = maintenance.prepare(
        txn, RID(0, 0), Record((7, "old")), Record((7, "new")))
    assert snapshot.count == 1            # index visible, still counted
    assert len(system.sidefiles["idx"]) == 0  # but no key change


def test_prepare_update_key_change_appends_pair():
    system, table, descriptor, maintenance, context = make_stage()
    txn = system.txns.begin()
    maintenance.prepare(
        txn, RID(0, 0), Record((7, "p")), Record((9, "p")))
    entries = system.sidefiles["idx"].entries
    assert [(e.operation, e.key_value) for e in entries] == \
        [("delete", (7,)), ("insert", (9,))]


# -- descriptor --------------------------------------------------------------------


def test_descriptor_key_of_and_attach_detach():
    system = System()
    table = system.create_table("t", ["a", "b", "c"])
    descriptor = IndexDescriptor(system, table, "idx", ["c", "a"])
    assert descriptor.key_of(Record((1, 2, 3))) == (3, 1)
    descriptor.attach()
    assert system.indexes["idx"] is descriptor
    assert table.indexes == [descriptor]
    descriptor.detach()
    assert "idx" not in system.indexes
    assert table.indexes == []


def test_descriptor_duplicate_name_rejected():
    system = System()
    table = system.create_table("t", ["a"])
    IndexDescriptor(system, table, "idx", ["a"]).attach()
    with pytest.raises(StorageError):
        IndexDescriptor(system, table, "idx", ["a"])


def test_descriptor_unknown_column_rejected():
    system = System()
    table = system.create_table("t", ["a"])
    with pytest.raises(StorageError):
        IndexDescriptor(system, table, "idx", ["nope"])


# -- audits ------------------------------------------------------------------------------


def built_index(rows=30):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=4))
    table = system.create_table("t", ["k", "p"])

    def body():
        txn = system.txns.begin()
        for i in range(rows):
            yield from table.insert(txn, (i, "x"))
        yield from txn.commit()

    drive(system, body())
    builder = NSFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    proc = system.spawn(builder.run(), name="b")
    system.run()
    assert proc.error is None
    return system, system.indexes["idx"]


def test_audit_detects_missing_entry():
    system, descriptor = built_index()
    # physically remove one key behind the audit's back
    leaf = next(iter(descriptor.tree.leaf_chain()))
    del leaf.entries[0]
    with pytest.raises(ConsistencyError, match="missing"):
        audit_index(system, descriptor)


def test_audit_detects_spurious_entry():
    system, descriptor = built_index()
    descriptor.tree.apply_logical("insert", (9_999,), RID(50, 0))
    with pytest.raises(ConsistencyError, match="spurious"):
        audit_index(system, descriptor)


def test_audit_detects_duplicate_live_entry(monkeypatch):
    """One live entry twice.  The structural audit refuses such a leaf
    first (its entries must ascend strictly), so it is stubbed out here
    to reach the check behind it."""
    system, descriptor = built_index()
    leaf = next(iter(descriptor.tree.leaf_chain()))
    leaf.entries[1] = leaf.entries[0]
    with pytest.raises(TreeAuditError, match="out of order"):
        audit_index(system, descriptor)
    monkeypatch.setattr(consistency, "audit_tree", lambda tree: {})
    with pytest.raises(ConsistencyError, match="duplicate live entry"):
        audit_index(system, descriptor)


def test_audit_detects_shared_key_value_in_unique_index():
    system, descriptor = built_index()

    def body():
        txn = system.txns.begin()
        yield from system.tables["t"].insert(txn, (7, "twin"))
        yield from txn.commit()

    drive(system, body())
    assert audit_index(system, descriptor)["entries"] == 31
    descriptor.unique = True  # the tree itself still admits the twin
    with pytest.raises(ConsistencyError, match="duplicate key values"):
        audit_index(system, descriptor)


def test_audit_ignores_pseudo_deleted():
    """A rolled-back insert leaves a tombstone (section 2.2.3 step 6);
    the audit must treat it as logically absent."""
    system, descriptor = built_index()

    def body():
        txn = system.txns.begin()
        yield from system.tables["t"].insert(txn, (9_999, "doomed"))
        yield from txn.rollback()

    drive(system, body())
    report = audit_index(system, descriptor)
    assert report["pseudo_deleted"] >= 1


def test_tree_audit_detects_out_of_order():
    system = System()
    system.create_table("t", ["k"])
    tree = BTree(system, "broken", "t")
    leaf = tree._ensure_root()
    leaf.entries = [(5, RID(0, 0)), (3, RID(0, 1))]
    with pytest.raises(TreeAuditError, match="out of order"):
        audit_tree(tree)


def test_tree_audit_detects_over_capacity():
    system = System(SystemConfig(leaf_capacity=2))
    system.create_table("t", ["k"])
    tree = BTree(system, "broken", "t")
    leaf = tree._ensure_root()
    leaf.entries = [(i, RID(0, i)) for i in range(5)]
    with pytest.raises(TreeAuditError, match="over capacity"):
        audit_tree(tree)


def test_tree_audit_detects_duplicate_in_unique():
    system = System()
    system.create_table("t", ["k"])
    tree = BTree(system, "broken", "t", unique=True)
    leaf = tree._ensure_root()
    leaf.entries = [(5, RID(0, 0)), (5, RID(0, 1))]
    with pytest.raises(TreeAuditError, match="duplicate"):
        audit_tree(tree)


# -- cleanup edge cases --------------------------------------------------------------------


def test_cleanup_skips_uncommitted_tombstone():
    """Section 2.2.4: 'if the lock is granted, then delete the key;
    otherwise, skip it since the key's deletion is probably
    uncommitted.'  We stage an NSF build (deletes are logical) with the
    deleter still active while GC runs."""
    system, table, descriptor, maintenance, context = make_stage(
        mode=NSF_MODE)
    tree = descriptor.tree

    def body():
        setup = system.txns.begin("setup")
        rid = yield from table.insert(setup, (5, "victim"))
        yield from setup.commit()
        deleter = system.txns.begin("deleter")
        yield from table.delete(deleter, rid)  # tombstone, during build
        assert tree.key_count(include_pseudo_deleted=True) == 1
        assert tree.key_count() == 0
        gc_result = yield from cleanup_pseudo_deleted(system, descriptor)
        yield from deleter.commit()
        return gc_result

    removed = drive(system, body())
    assert removed == 0
    assert system.metrics.get("gc.keys_skipped") >= 1
    assert tree.key_count(include_pseudo_deleted=True) == 1


def test_cleanup_on_clean_index_is_noop():
    system, descriptor = built_index()
    proc = system.spawn(cleanup_pseudo_deleted(system, descriptor),
                        name="gc")
    system.run()
    assert proc.error is None
    assert proc.result == 0


def test_cleanup_charges_only_the_leaves_that_collected_a_key():
    """GC's key operation is charged per leaf that removed or skipped a
    key: one tombstone costs the same in the first leaf as in the last,
    one ``key_op_cost`` above a pass over the clean index."""

    def gc_time(pick):
        system, descriptor = built_index(rows=60)
        tree = descriptor.tree
        leaves = list(tree.leaf_chain())
        assert len(leaves) >= 10
        if pick is not None:
            entry = leaves[pick].entries[pick]
            tree.apply_logical("pseudo_delete", entry_key(entry),
                               entry_rid(entry))
        start = system.now()
        proc = system.spawn(cleanup_pseudo_deleted(system, descriptor),
                            name="gc")
        system.run()
        assert proc.result == (0 if pick is None else 1)
        return system.now() - start, system.config.key_op_cost

    clean, key_op_cost = gc_time(None)
    assert gc_time(0)[0] == gc_time(-1)[0] == clean + key_op_cost
