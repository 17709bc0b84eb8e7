"""The paper's worked examples, transliterated into executable tests."""

import pytest

from repro.btree.node import entry_key, entry_rid, make_entry
from repro.btree.tree import IBCursor
from repro.core import (
    IndexSpec,
    IndexState,
    NSFIndexBuilder,
    SFIndexBuilder,
    cancel_build,
    install_maintenance,
)
from repro.core.descriptor import IndexDescriptor
from repro.core.maintenance import BuildContext, NSF_MODE
from repro.sidefile import SideFile, register_sidefile_operations
from repro.storage import RID
from repro.system import System, SystemConfig
from repro.verify import audit_index


def drive(system, body, name="driver"):
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def nsf_stage(unique=False):
    """A table with an NSF build 'in progress' (descriptor visible,
    context installed), letting tests interleave IB steps by hand."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8))
    table = system.create_table("t", ["k", "p"])
    descriptor = IndexDescriptor(system, table, "idx", ["k"],
                                 unique=unique)
    descriptor.build_mode = NSF_MODE
    descriptor.attach()
    install_maintenance(system, table)
    context = BuildContext(mode=NSF_MODE, descriptors=[descriptor])
    system.builds[table.name] = context
    return system, table, descriptor


def test_nine_step_scenario_nonunique():
    """Section 2.2.3's numbered example, nonunique index:

    1. T1 inserts a record with RID R and key value K.
    2. T1 inserts the key <K,R> into the index being constructed.
    3. IB reads the new record and tries to insert its key.
    4. IB finds the duplicate and does not insert.
    5. T1 rolls back.
    6. T1 marks the key pseudo-deleted and deletes the record.
    7. T2 inserts a record at the same RID R with the same key K.
    8. T2's key insert resets the pseudo-deleted flag.
    9. T2 commits: <K,R> live in the index, valid record at R.
    """
    system, table, descriptor = nsf_stage()
    tree = descriptor.tree
    K = (42,)

    def scenario():
        t1 = system.txns.begin("T1")
        rid = yield from table.insert(t1, (42, "t1"))        # steps 1-2
        assert tree.key_count() == 1

        ib = system.txns.begin("IB")                          # steps 3-4
        rejected_before = system.metrics.get(
            "index.duplicate_rejections.ib")
        count = yield from tree.ib_insert_batch(
            ib, [make_entry(K, rid)], IBCursor())
        yield from ib.commit()
        assert count == 0
        assert system.metrics.get("index.duplicate_rejections.ib") \
            == rejected_before + 1

        yield from t1.rollback()                              # steps 5-6
        assert tree.key_count() == 0
        assert tree.key_count(include_pseudo_deleted=True) == 1
        assert table.system.disk is system.disk  # record gone from page
        assert list(table.audit_records()) == []

        t2 = system.txns.begin("T2")                          # steps 7-8
        again = yield from table.insert_at(t2, rid, (42, "t2"))
        assert again == rid
        entries = list(tree.all_entries())
        assert len(entries) == 1 and entries[0] not in tree.pseudo_deleted

        yield from t2.commit()                                # step 9
        return rid

    rid = drive(system, scenario())
    entries = list(tree.all_entries())
    assert entries == [make_entry(K, rid)]


def test_nine_step_variant_unique_new_rid():
    """Section 2.2.3's closing variant: T2 inserts the same key value at a
    *different* RID R1; for a unique index T2 must find the terminated
    inserter's pseudo-deleted <K,R>, reset the flag, and replace R with
    R1."""
    system, table, descriptor = nsf_stage(unique=True)
    tree = descriptor.tree

    def scenario():
        t1 = system.txns.begin("T1")
        rid = yield from table.insert(t1, (42, "t1"))
        yield from t1.rollback()  # leaves pseudo-deleted <K,R>
        assert tree.key_count(include_pseudo_deleted=True) == 1

        # Occupy the freed slot so T2 lands at a different RID (R1).
        filler = system.txns.begin("filler")
        yield from table.insert_at(filler, rid, (5, "filler"))
        yield from filler.commit()

        t2 = system.txns.begin("T2")
        rid1 = yield from table.insert(t2, (42, "t2"))
        assert rid1 != rid
        yield from t2.commit()
        return rid, rid1

    rid, rid1 = drive(system, scenario())
    entries = [e for e in tree.all_entries(include_pseudo_deleted=True)
               if entry_key(e) == (42,)]
    assert len(entries) == 1
    assert entry_rid(entries[0]) == rid1
    assert entries[0] not in tree.pseudo_deleted
    audit_index(system, descriptor)


def test_delete_key_problem_tombstone_blocks_ib():
    """Section 2.2.3 "IB and Delete Operations": the deleter of a key that
    is not in the index leaves a pseudo-deleted tombstone so that IB's
    later insert (from a stale extraction) is rejected."""
    system, table, descriptor = nsf_stage()
    tree = descriptor.tree

    def scenario():
        t0 = system.txns.begin("T0")
        rid = yield from table.insert(t0, (7, "victim"))
        yield from t0.commit()
        # Pretend IB extracted the key here (before the delete) ...
        stale_key = make_entry((7,), rid)
        # remove the direct insert T0 performed, as if the index had been
        # empty when IB scanned -- i.e. simulate pure race: physically
        # clear the tree.
        tree.reset()

        t1 = system.txns.begin("T1")
        yield from table.delete(t1, rid)   # no key found -> tombstone
        yield from t1.commit()
        assert tree.key_count(include_pseudo_deleted=True) == 1
        assert tree.key_count() == 0

        ib = system.txns.begin("IB")
        count = yield from tree.ib_insert_batch(ib, [stale_key],
                                                IBCursor())
        yield from ib.commit()
        assert count == 0  # tombstone rejected the stale insert
        return rid

    drive(system, scenario())
    assert tree.key_count() == 0
    audit_index(system, descriptor)


def test_sf_rollback_visibility_scenario():
    """Section 3.2.3: "T1 updates data page P10; index build for I3 begins
    and completes; index build for I4 begins and causes IB to process P10
    and move [Current-RID] past P10; T1 rolls back its change to P10.
    ... T1 has to make an entry in the side-file for the index undo to be
    performed in I4 and it should perform a logical undo (by traversing
    the tree) in I3."""
    config = SystemConfig(page_capacity=8, leaf_capacity=8,
                          sort_workspace=8, merge_fanin=4)
    system = System(config, seed=0)
    table = system.create_table("t", ["k", "p"])

    def scenario():
        setup = system.txns.begin("setup")
        rids = []
        for i in range(400):  # many pages: keeps I4's build window open
            rid = yield from table.insert(setup, (i * 10, f"row{i}"))
            rids.append(rid)
        yield from setup.commit()

        # T1 updates a record on the first page (key 30 -> 31),
        # stays uncommitted.
        t1 = system.txns.begin("T1")
        target = rids[3]
        yield from table.update(t1, target, (31, "t1-update"))

        # I3 build begins and completes (SF, sees count mismatch later).
        builder3 = SFIndexBuilder(system, table,
                                  IndexSpec.of("I3", ["k"]))
        proc3 = system.spawn(builder3.run(), name="I3")
        while not proc3.finished:
            yield from _tick(system)
        assert proc3.error is None

        # I4 build begins; wait until its scan has moved past T1's page.
        builder4 = SFIndexBuilder(system, table,
                                  IndexSpec.of("I4", ["k"]))
        proc4 = system.spawn(builder4.run(), name="I4")
        while True:
            context = system.builds.get("t")
            if context is not None and context.current_rid > RID(0, 99):
                break
            assert not proc4.finished
            yield from _tick(system)

        appended_before = len(system.sidefiles["I4"].entries)
        yield from t1.rollback()
        appended_after = len(system.sidefiles["I4"].entries)
        # Figure 2: entries appended to I4's side-file during undo...
        assert appended_after >= appended_before + 2  # delete 31, insert 30
        # ...and logical undo performed in completed I3.
        assert system.metrics.get("maintenance.logical_tree_undos") >= 1

        while not proc4.finished:
            yield from _tick(system)
        assert proc4.error is None
        return target

    drive(system, scenario())
    audit_index(system, system.indexes["I3"])
    audit_index(system, system.indexes["I4"])
    entries3 = list(system.indexes["I3"].tree.all_entries())
    assert make_entry((31,), RID(0, 3)) not in entries3
    assert make_entry((30,), RID(0, 3)) in entries3


def _tick(system):
    from repro.sim import Delay
    yield Delay(1)


def test_cancel_build_quiesces_and_drops(seed=0):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8), seed=seed)
    table = system.create_table("t", ["k", "p"])

    def scenario():
        setup = system.txns.begin()
        for i in range(30):
            yield from table.insert(setup, (i, "x"))
        yield from setup.commit()
        builder = NSFIndexBuilder(system, table,
                                  IndexSpec.of("idx", ["k"]))
        proc = system.spawn(builder.run(), name="builder")
        from repro.sim import Delay
        yield Delay(5)  # let the build get going
        yield from cancel_build(system, system.indexes["idx"])
        return proc

    drive(system, scenario())
    assert "idx" not in system.indexes
    assert table.indexes == []
    assert system.metrics.get("build.cancels") == 1

    # Table still fully usable afterwards.
    def after():
        txn = system.txns.begin()
        yield from table.insert(txn, (99, "later"))
        yield from txn.commit()

    drive(system, after())
