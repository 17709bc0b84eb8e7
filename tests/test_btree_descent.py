"""The B+-tree write path is O(height): leaf handles, split paths and
fences all come from key-guided descents, never from a structural walk."""

import random

import pytest

from repro.btree import BTree, BulkLoader, audit_tree
from repro.btree.tree import IBCursor
from repro.errors import StorageError
from repro.storage import RID
from repro.system import System, SystemConfig


class CountingPages(dict):
    """``tree.pages`` with every node look-up counted."""

    lookups = 0

    def __getitem__(self, page_no):
        self.lookups += 1
        return super().__getitem__(page_no)

    def get(self, page_no, default=None):
        self.lookups += 1
        return super().get(page_no, default)


def make_tree(capacity, keys):
    system = System(SystemConfig(leaf_capacity=capacity,
                                 branch_capacity=capacity))
    system.create_table("t", ["k", "p"])
    tree = BTree(system, "idx", "t")
    loader = BulkLoader(tree)
    for key_value, rid in keys:
        loader.append((key_value,), rid)
    loader.finish()
    return system, tree


def drive(system, body):
    proc = system.spawn(body, name="driver")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


def test_write_path_node_lookups_are_bounded_by_height():
    """Post-flip inserts, deletes and a drain batch against a bulk-loaded
    tree (every leaf full, none ever descended to) touch O(height) nodes
    each; the structural walk this replaces touched ~1 000.  So does
    each split under IB's sorted multi-key inserts."""
    loaded = [(k * 10, RID(k // 16, k % 16)) for k in range(20_000)]
    system, tree = make_tree(16, loaded)
    rng = random.Random(13)
    victims = rng.sample(loaded, 250)
    fresh = [(rng.randrange(20_000) * 10 + 5, RID(5000 + i, 0))
             for i in range(250)]
    ops = [("delete", key) for key in victims] \
        + [("insert", key) for key in fresh]
    rng.shuffle(ops)
    drained = [("insert", (rng.randrange(20_000) * 10 + 7,),
                RID(6000 + i, 0)) for i in range(64)]
    height = tree.height
    tree.pages = pages = CountingPages(tree.pages)

    def body():
        txn = system.txns.begin("T")
        for kind, (key_value, rid) in ops:
            if kind == "insert":
                yield from tree.txn_insert_key(txn, (key_value,), rid,
                                               during_build=False)
            else:
                yield from tree.txn_delete_key(txn, (key_value,), rid,
                                               during_build=False)
        yield from tree.sf_drain_apply_batch(txn, drained)
        yield from txn.commit()

    drive(system, body())
    operations = len(ops) + len(drained)
    # one descent plus the next-key lock's hop along the leaf chain;
    # measured 5.1 at height 4, where the structural walk took 320
    assert pages.lookups <= 2 * height * operations, (
        f"{pages.lookups / operations:.1f} node look-ups per operation at "
        f"height {height}")
    assert system.metrics.get("index.splits") >= 250
    tree.pages = dict(pages)
    audit_tree(tree)
    assert tree.key_count() == len(loaded) + len(drained)

    # IB's diet: sorted keys in batches of 16 into an empty tree of
    # 8-entry leaves, the remembered-leaf cursor carrying each batch on.
    system = System(SystemConfig(leaf_capacity=8, branch_capacity=8))
    tree = BTree(system, "idx", "t")
    values = sorted(rng.sample(range(120_000), 12_000))
    keys = [(value, (i // 64, i % 64)) for i, value in enumerate(values)]
    tree.pages = pages = CountingPages(tree.pages)
    cursor = IBCursor()

    def ib_body():
        txn = system.txns.begin("IB")
        for start in range(0, len(keys), 16):
            yield from tree.ib_insert_batch(txn, keys[start:start + 16],
                                            cursor)
        yield from txn.commit()

    drive(system, ib_body())
    splits = system.metrics.get("index.splits")
    # a split costs one re-descent; measured 0.9 x height per split,
    # where a structural search per split took ~1 500 (234 per key)
    assert splits >= 1_500
    assert pages.lookups <= 2 * tree.height * splits, (
        f"{pages.lookups / splits:.1f} node look-ups per split at height "
        f"{tree.height}")
    tree.pages = dict(pages)
    audit_tree(tree)
    assert tree.key_count() == len(keys)


def test_fences_memoised_before_a_crash_are_not_consulted_after():
    loaded = [(k, RID(0, k)) for k in range(0, 64, 2)]
    system, tree = make_tree(4, loaded)
    tree.force()

    def body():
        # after the snapshot: descents memoise fences and splits patch
        # them for a structure the crash is about to take away
        txn = system.txns.begin("T")
        for k in range(1, 64, 2):
            yield from tree.txn_insert_key(txn, (k,), RID(1, k),
                                           during_build=True)
        yield from txn.commit()

    drive(system, body())
    assert tree._fences
    assert audit_tree(tree)["leaves"] > 8
    tree.crash()
    assert tree._fences == {}
    stats = audit_tree(tree)
    assert stats["leaves"] == 8
    # a handle no descent produced since the crash is refused, not
    # answered from the old memo
    leaves = list(tree.leaf_chain())
    with pytest.raises(StorageError):
        tree._leaf_covers(leaves[3], leaves[3].entries[0])
    for leaf in leaves:
        landed, _path = tree._traverse(leaf.entries[0],
                                       count=False)
        assert landed is leaf
    assert tree._fences == stats["fences"]
    # the media-recovery way in (an installed image, no crash) forgets too
    tree.install_stable_image(tree.stable_image())
    assert tree._fences == {}
