"""``BTree.force()`` images the pages dirtied since the last force.

The stable image is one persistent ``{page_no: image}`` map; a force
re-images only the pages in ``tree.dirty``.  The reference is the
whole-tree serialisation ``force()`` used to do, kept here: after every
force the incremental map must equal an image taken from scratch, and
after every crash the tree that comes back must be the stable one.  Any
new site that mutates a page without adding it to ``tree.dirty`` fails
this oracle in whichever mode reaches it.  At the rarely reached sites a
second check replays each forced interval: the previous stable image
plus a redo of every younger ``index.apply`` record must equal the live
tree, so a site that changes a page without logging it fails too.
"""

import pytest

from repro.btree import BTree, BulkLoader, IBCursor, InsertOutcome
from repro.btree.node import LeafPage, entry_key, entry_rid, make_entry
from repro.btree.tree import IX_ACTION, IX_INDEX, IX_OLD_RID
from repro.core import build_pre_undo, cancel_build, resume_build
from repro.core.cleanup import cleanup_pseudo_deleted
from repro.core.descriptor import IndexDescriptor, IndexState
from repro.faultinject.injector import CRASH, FaultPlan, TORN_WRITE
from repro.recovery import restart
from repro.storage.rid import RID
from repro.sweep import (INDEX_NAME, Plan, Scenario, SchedulePlan,
                         start_build)
from repro.system import System, SystemConfig
from repro.verify import audit_index


def reference_image(tree) -> dict:
    """The whole tree imaged from scratch (the old ``_serialize``, with a
    leaf's pseudo-deleted entries listed apart)."""
    pages = {}
    for no, page in tree.pages.items():
        if isinstance(page, LeafPage):
            pages[no] = ("leaf", page.capacity, page.next_leaf,
                         tuple(page.entries),
                         tuple(e for e in page.entries
                               if e in tree.pseudo_deleted))
        else:
            pages[no] = ("branch", page.capacity,
                         tuple(page.separators), tuple(page.children))
    return {"pages": pages, "root": tree.root,
            "next_page_no": tree._next_page_no}


def stable_as_reference(tree) -> dict:
    stable = tree.stable_image()
    return {"pages": stable.pages, "root": stable.root,
            "next_page_no": stable.next_page_no}


@pytest.fixture
def oracle(monkeypatch):
    """Check every force and every crash of every tree; returns the log
    of ``(tree name, pages dirty before, pages imaged)`` per force."""
    forces = []
    real_force, real_crash = BTree.force, BTree.crash

    def checked_force(tree):
        dirty, imaged = len(tree.dirty), tree.pages_imaged
        real_force(tree)  # a torn force raises before any check
        forces.append((tree.name, dirty, tree.pages_imaged - imaged))
        assert not tree.dirty
        assert stable_as_reference(tree) == reference_image(tree), (
            f"{tree.name}: a page changed without being marked dirty")
        assert tree.stable_image().durable_lsn == tree.durable_lsn

    def checked_crash(tree):
        real_crash(tree)
        assert not tree.dirty
        assert reference_image(tree) == stable_as_reference(tree)

    monkeypatch.setattr(BTree, "force", checked_force)
    monkeypatch.setattr(BTree, "crash", checked_crash)
    return forces


def entries(tree) -> list:
    """Every entry of ``tree`` in key order, pseudo-deleted ones too."""
    return [(entry_key(e), entry_rid(e), e in tree.pseudo_deleted)
            for e in tree.all_entries(include_pseudo_deleted=True)]


def younger_applies(tree) -> list:
    """``tree``'s ``index.apply`` records past its last force."""
    return [r for r in tree.system.log.scan(tree.durable_lsn + 1)
            if r.redo_op == "index.apply" and r.payload[IX_INDEX] == tree.name]


def replayed(tree) -> BTree:
    """A copy of ``tree`` from its stable image plus a redo of every
    younger ``index.apply`` record, on a system of its own (a redo split
    logs and counts)."""
    copy = BTree(System(tree.system.config), tree.name, tree.table_name,
                 unique=tree.unique, leaf_capacity=tree.leaf_capacity,
                 branch_capacity=tree.branch_capacity)
    copy.install_stable_image(tree.stable_image())
    for record in younger_applies(tree):
        copy.apply_logged(record.payload)
    return copy


@pytest.fixture
def replay(oracle, monkeypatch):
    """Before every force, replay the interval it closes: for tests whose
    intervals hold no bulk load (an unlogged load replays nothing)."""
    checked_force = BTree.force

    def replayed_force(tree):
        assert entries(replayed(tree)) == entries(tree), (
            f"{tree.name}: a change was not logged")
        checked_force(tree)

    monkeypatch.setattr(BTree, "force", replayed_force)


def small(builder, **kwargs):
    return Scenario(builder=builder, records=150, operations=10,
                    buffer_frames=1024, **kwargs)


# -- the oracle through every build mode ------------------------------------


@pytest.mark.parametrize("scenario", [
    Scenario(builder="sf", records=300, operations=60),
    Scenario(builder="nsf", records=300, operations=60),
    Scenario(builder="multi", records=200, operations=40),
    Scenario(builder="psf", records=300, operations=60, partitions=2),
    small("rebuild"),
], ids=lambda s: s.label)
def test_builds_under_traffic_force_exactly_the_changed_pages(
        oracle, scenario):
    for schedule in (None, SchedulePlan(schedule_seed=5)):
        result = scenario.run(Plan(schedule=schedule))
        assert result.passed, result.detail
    assert sum(imaged for _name, _dirty, imaged in oracle) > 0


def _crash_and_resume(scenario, fault):
    injector = scenario.make_injector(fault)
    system, _driver, _proc = start_build(scenario, injector)
    system.run()
    assert injector.fired is not None and system.sim.crashed
    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    assert resumed is not None
    proc = recovered.spawn(resumed.run(), name="resumed")
    recovered.run()
    if proc.error is not None:
        raise proc.error
    for name, descriptor in recovered.indexes.items():
        assert descriptor.state is IndexState.AVAILABLE, name
        audit_index(recovered, descriptor)
    return recovered


@pytest.mark.parametrize("builder,site,hit,kind", [
    # the hits test_torn_page.py pins: mid-load and after the drain
    ("sf", "btree.force", 6, TORN_WRITE),
    ("sf", "btree.force", 11, TORN_WRITE),
    ("sf", "btree.force.after", 6, CRASH),
    ("nsf", "btree.force", 2, TORN_WRITE),
    ("nsf", "btree.ib_insert", 40, CRASH),
    ("multi", "btree.force", 9, TORN_WRITE),
    ("multi", "btree.drain_apply", 3, CRASH),
])
def test_crash_restart_resume_keeps_the_map_exact(oracle, builder, site,
                                                  hit, kind):
    _crash_and_resume(small(builder), FaultPlan(site, hit, kind))
    assert oracle


def test_truncate_and_reload_replaces_the_stale_image(oracle):
    """Trees forced, checkpoint record lost: the stable image is ahead
    of the checkpoint, ``_align_tree_with_checkpoint`` resets and
    reloads, and the next force must drop every stale stable page."""
    recovered = _crash_and_resume(
        small("sf"), FaultPlan("build.checkpoint.mid", 7, CRASH))
    assert recovered.metrics.get("build.resumes.tree_truncated") == 1


def test_a_crash_between_reset_and_the_next_force_restores_the_old_image(
        oracle):
    """Reset is volatile: truncate-and-reload, then crash again before
    any force -- the old stable image comes back, not an empty tree."""
    scenario = small("sf")
    injector = scenario.make_injector(
        FaultPlan("build.checkpoint.mid", 7, CRASH))
    system, _driver, _proc = start_build(scenario, injector)
    system.run()
    recovered, _state = restart(system, pre_undo=build_pre_undo)
    tree = recovered.indexes[INDEX_NAME].tree
    before = reference_image(tree)
    assert before["pages"] and tree.durable_lsn
    tree.reset()
    BulkLoader(tree).extend([(k, RID(0, k)) for k in range(20)])
    assert tree.durable_lsn == 0 and len(tree.dirty) == tree.page_count
    recovered.crash()
    assert reference_image(tree) == before
    assert tree.durable_lsn == tree.stable_image().durable_lsn != 0


def test_cancel_build_leaves_one_consistent_empty_tree(oracle):
    system, tree, run, _rids = _stage()
    BulkLoader(tree).extend([(k, RID(0, k)) for k in range(40)])
    tree._traverse((7, RID(0, 7)))  # memoise a fence
    tree.force()
    assert tree.stable_image().pages and tree._fences
    run(cancel_build(system, system.indexes["idx"]))
    assert "idx" not in system.indexes
    assert (tree.pages, tree.root, tree._next_page_no, tree._fences,
            tree.dirty) == ({}, None, 0, {}, set())
    tree.force()  # the oracle: no page of the cancelled build survives
    assert tree.stable_image().pages == {}


# -- mutation sites the builds rarely reach, one at a time -------------------


def _stage(unique=False, rows=0):
    """A table, a detached-from-maintenance descriptor and a runner."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=4,
                                 branch_capacity=4), seed=3)
    table = system.create_table("t", ["k", "p"])

    def run(body):
        proc = system.spawn(body, name="t")
        system.run()
        if proc.error is not None:
            raise proc.error
        return proc.result

    def preload():
        txn = system.txns.begin("preload")
        rids = []
        for k in range(rows):
            rids.append((yield from table.insert(txn, (k, "x"))))
        yield from txn.commit()
        return rids

    rids = run(preload())
    descriptor = IndexDescriptor(system, table, "idx", ["k"], unique=unique,
                                 leaf_capacity=4)
    system.indexes["idx"] = descriptor  # catalog only: no maintenance
    return system, descriptor.tree, run, rids


def _one_txn(system, *steps):
    def body():
        txn = system.txns.begin("T")
        for step in steps:
            yield from step(txn)
        yield from txn.commit()
    return body()


def test_leaf_and_branch_splits_between_forces(oracle, replay):
    system, tree, run, _rids = _stage()
    for start in range(0, 240, 12):
        run(_one_txn(system, *[
            (lambda txn, k=k: tree.txn_insert_key(
                txn, (k * 37 % 241,), RID(0, k), during_build=False))
            for k in range(start, start + 12)]))
        tree.force()
    assert tree.height >= 4
    assert all(0 < imaged < tree.page_count for _n, _d, imaged in oracle[3:])


@pytest.mark.parametrize("unique", [False, True], ids=["plain", "unique"])
def test_pseudo_delete_then_reactivation_by_a_transaction(oracle, replay,
                                                           unique):
    system, tree, run, _rids = _stage(unique=unique)
    key = ((5,), RID(0, 5))
    run(_one_txn(system, *[
        (lambda txn, k=k: tree.txn_insert_key(txn, (k,), RID(0, k),
                                              during_build=True))
        for k in range(12)]))
    tree.force()
    for step in (tree.txn_delete_key, tree.txn_insert_key,
                 tree.txn_delete_key):
        run(_one_txn(system, lambda txn: step(txn, *key,
                                              during_build=True)))
        tree.force()
        assert oracle[-1] == ("idx", 1, 1)
    # a physical delete, as on a completed index
    run(_one_txn(system, lambda txn: tree.txn_delete_key(
        txn, (6,), RID(0, 6), during_build=False)))
    tree.force()
    assert oracle[-1] == ("idx", 1, 1)


def test_a_unique_tombstone_revived_under_a_new_rid(oracle, replay):
    """``_insert_decide``'s REPLACED_RID (a transaction) and
    ``_ib_unique_check``'s revival (IB): the entry changes in place."""
    system, tree, run, rids = _stage(unique=True, rows=8)
    tombstones = [((k,), RID(90, k)) for k in (2, 6)]
    run(_one_txn(system, *[
        (lambda txn, key=key: tree.txn_delete_key(txn, *key,
                                                  during_build=True))
        for key in tombstones]))
    tree.force()
    outcome = run(_one_txn(system, lambda txn: tree.txn_insert_key(
        txn, (2,), rids[2], during_build=True)))
    assert system.metrics.get("index.rid_replacements") == 1
    tree.force()
    assert oracle[-1] == ("idx", 1, 1), outcome
    run(_one_txn(system, lambda txn: tree.ib_insert_batch(
        txn, [(6, rids[6])], IBCursor())))
    assert system.metrics.get("index.rid_replacements") == 2
    tree.force()
    assert oracle[-1] == ("idx", 1, 1)


def test_the_ib_revive_is_logged_like_a_replaced_rid(oracle):
    """IB's revive of a settled deleter's tombstone writes its
    ``replace_rid`` record as the transaction's REPLACED_RID does: a
    crash back to the force before it, then redo, gives IB's live entry,
    not the tombstone (nor would a restore from a copy taken there)."""
    system, tree, run, rids = _stage(unique=True, rows=8)
    run(_one_txn(system, *[
        (lambda txn, key=key: tree.txn_delete_key(txn, *key,
                                                  during_build=True))
        for key in (((2,), RID(90, 2)), ((6,), RID(90, 6)))]))
    tree.force()
    run(_one_txn(system, lambda txn: tree.txn_insert_key(
        txn, (2,), rids[2], during_build=True)))
    assert len(younger_applies(tree)) == 1
    tree.force()
    ib_records = system.metrics.get("wal.records.ib")
    run(_one_txn(system, lambda txn: tree.ib_insert_batch(
        txn, [(6, rids[6])], IBCursor())))
    revive, = younger_applies(tree)
    assert system.metrics.get("wal.records.ib") == ib_records + 1
    assert revive.payload[IX_ACTION] == "replace_rid"
    assert revive.payload[IX_OLD_RID] == RID(90, 6)
    live = entries(tree)
    assert ((6,), rids[6], False) in live
    tree.crash()
    assert ((6,), RID(90, 6), True) in entries(tree)
    tree.apply_logged(revive.payload)
    assert entries(tree) == live


def test_a_duplicate_insert_rolled_back_pseudo_deletes_ibs_key(oracle,
                                                               replay):
    """DUPLICATE_NOOP: IB inserted the key first, so the transaction
    writes only the undo-only record; its rollback pseudo-deletes IB's
    entry under a CLR."""
    system, tree, run, rids = _stage(rows=8)
    run(_one_txn(system, lambda txn: tree.ib_insert_batch(
        txn, [(3, rids[3])], IBCursor())))
    tree.force()

    def duplicate():
        txn = system.txns.begin("T")
        outcome = yield from tree.txn_insert_key(txn, (3,), rids[3],
                                                 during_build=True)
        assert outcome is InsertOutcome.DUPLICATE_NOOP
        assert not younger_applies(tree)
        yield from txn.rollback()

    run(duplicate())
    assert entries(tree) == [((3,), rids[3], True)]
    tree.force()
    assert oracle[-1] == ("idx", 1, 1)


def test_redo_of_replace_rid_images_the_old_rids_leaf(oracle):
    system, tree, run, _rids = _stage(unique=True)
    BulkLoader(tree, fill_free_fraction=0.0).extend(
        [(k, RID(5, k)) for k in range(16)])
    tree.force()
    # the first entry of a right-hand leaf: its composite is the
    # separator, so the same key value under a lower RID descends left
    right = list(tree.leaf_chain())[2]
    key_value, old_rid = entry_key(right.entries[0]), entry_rid(
        right.entries[0])
    new_rid = RID(0, 0)
    assert tree._traverse(make_entry(key_value, new_rid))[0] is not right
    tree.apply_logical("replace_rid", key_value, new_rid, old_rid=old_rid)
    assert entry_rid(right.entries[0]) == new_rid
    tree.force()
    assert oracle[-1][1:] == (2, 2)


def test_garbage_collection_of_pseudo_deleted_keys(oracle, replay):
    system, tree, run, _rids = _stage()
    run(_one_txn(system, *[
        (lambda txn, k=k: tree.txn_insert_key(txn, (k,), RID(0, k),
                                              during_build=True))
        for k in range(12)]))
    run(_one_txn(system, *[
        (lambda txn, k=k: tree.txn_delete_key(txn, (k,), RID(0, k),
                                              during_build=True))
        for k in (1, 10)]))
    tree.force()
    assert run(cleanup_pseudo_deleted(system, system.indexes["idx"])) == 2
    tree.force()
    assert oracle[-1] == ("idx", 2, 2)


def test_a_resumed_loader_appends_into_a_forced_partial_leaf(oracle):
    system, tree, run, _rids = _stage()
    BulkLoader(tree, fill_free_fraction=0.0).extend(
        [(k, RID(0, k)) for k in range(10)])  # 4 + 4 + 2
    tree.force()
    loader = BulkLoader.resume(tree, fill_free_fraction=0.0)
    loader.extend([(10, RID(0, 10))])
    tree.force()
    assert oracle[-1] == ("idx", 1, 1)
    loader.extend([(11, RID(0, 11))])  # fills the leaf exactly
    tree.force()
    loader.extend([(12, RID(0, 12))])  # only the chain pointer changes
    tree.force()
    assert oracle[-1][1] == 3  # old leaf, new leaf, their parent


# -- tamper: a lost dirty mark is caught ------------------------------------


TOMBSTONE = ((5,), RID(0, 5))


def _tree_with_a_tombstone():
    """Twelve keys, ``TOMBSTONE`` pseudo-deleted, forced; and a drain of
    side-file entries into it."""
    system, tree, run, _rids = _stage()
    run(_one_txn(system, *[
        (lambda txn, k=k: tree.txn_insert_key(txn, (k,), RID(0, k),
                                              during_build=True))
        for k in range(12)]))
    run(_one_txn(system, lambda txn: tree.txn_delete_key(
        txn, *TOMBSTONE, during_build=True)))
    tree.force()
    return tree, lambda *batch: run(_one_txn(
        system, lambda ib: tree.sf_drain_apply_batch(ib, list(batch))))


def test_reactivation_by_the_drain_is_imaged(oracle, replay):
    tree, drain = _tree_with_a_tombstone()
    drain(("insert", *TOMBSTONE))
    assert len(tree.dirty) == 1
    tree.force()
    assert oracle[-1] == ("idx", 1, 1)


def test_drain_inserts_and_deletes_replay(oracle, replay):
    tree, drain = _tree_with_a_tombstone()
    drain(("insert", (20,), RID(0, 20)), ("delete", (3,), RID(0, 3)),
          ("insert", (3,), RID(1, 3)))
    assert ((3,), RID(1, 3), False) in entries(tree)
    assert ((3,), RID(0, 3), False) not in entries(tree)
    tree.force()


def test_the_oracle_catches_a_removed_dirty_mark(oracle):
    tree, drain = _tree_with_a_tombstone()
    real = tree._change

    def forgetful(*args, **kwargs):  # _change without its dirty mark
        real(*args, **kwargs)
        tree.dirty.clear()

    tree._change = forgetful
    drain(("insert", *TOMBSTONE))
    with pytest.raises(AssertionError, match="without being marked dirty"):
        tree.force()


def test_the_replay_check_catches_a_lost_log_record(oracle, replay):
    tree, drain = _tree_with_a_tombstone()
    tree._log_key_op = lambda *args, **kwargs: None  # a site that forgets
    drain(("insert", *TOMBSTONE))
    with pytest.raises(AssertionError, match="was not logged"):
        tree.force()


# -- work bound --------------------------------------------------------------


def test_a_force_images_no_more_than_what_was_dirtied(oracle):
    """Pages imaged per force <= pages dirtied since the last one, and a
    force with nothing dirtied images nothing (three of the six forces
    of a no-traffic SF build are such)."""
    scenario = Scenario(builder="sf", records=2_000, operations=0,
                        buffer_frames=1024)
    system, _driver, proc = start_build(scenario)
    system.run()
    assert proc.error is None, proc.error
    tree = system.indexes[INDEX_NAME].tree
    assert len(oracle) == system.metrics.get("index.forces") >= 4
    for _name, dirty, imaged in oracle:
        assert imaged <= dirty
    assert any(dirty == 0 and imaged == 0 for _n, dirty, imaged in oracle)
    # each page is imaged when it changes, not at every checkpoint: the
    # build's total stays within twice the tree (whole-tree forces
    # imaged pages x forces)
    assert tree.pages_imaged <= 2 * tree.page_count
    assert tree.pages_imaged < tree.page_count * len(oracle) / 2
    tree.force()
    assert oracle[-1] == (INDEX_NAME, 0, 0)
