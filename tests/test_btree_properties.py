"""Property-based tests (hypothesis) for B+-tree invariants."""

from bisect import bisect_left
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.btree import BTree, BulkLoader, IBCursor, audit_tree
from repro.btree.node import entry_key, entry_rid, format_entry, make_entry
from repro.query.access import _entries_in_range
from repro.storage import RID
from repro.storage.rid import format_rid
from repro.system import System, SystemConfig


def fresh_tree(unique=False, leaf_capacity=4):
    system = System(SystemConfig(leaf_capacity=leaf_capacity,
                                 branch_capacity=4))
    system.create_table("t", ["k", "v"])
    tree = BTree(system, "idx", "t", unique=unique)
    return system, tree


def run_txn(system, gen_fn):
    def body():
        txn = system.txns.begin()
        result = yield from gen_fn(txn)
        yield from txn.commit()
        return result

    proc = system.spawn(body(), name="prop")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


keys_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=200),
              st.builds(RID, st.integers(0, 20), st.integers(0, 15))),
    min_size=0, max_size=120)


@settings(max_examples=60, deadline=None)
@given(keys=keys_strategy)
def test_insert_keeps_tree_sorted_and_balanced(keys):
    system, tree = fresh_tree()

    def work(txn):
        for kv, rid in keys:
            yield from tree.txn_insert_key(txn, (kv,), rid,
                                           during_build=True)

    run_txn(system, work)
    audit_tree(tree)
    expected = {(kv, rid) for kv, rid in keys}
    got = set(tree.all_entries())
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(keys=keys_strategy, data=st.data())
def test_insert_then_delete_subset_leaves_complement(keys, data):
    unique_keys = list({(kv, rid) for kv, rid in keys})
    unique_keys.sort()
    to_delete = data.draw(st.sets(
        st.sampled_from(unique_keys) if unique_keys else st.nothing(),
        max_size=len(unique_keys))) if unique_keys else set()
    system, tree = fresh_tree()

    def work(txn):
        for kv, rid in unique_keys:
            yield from tree.txn_insert_key(txn, (kv,), rid, during_build=True)
        for kv, rid in to_delete:
            yield from tree.txn_delete_key(txn, (kv,), rid, during_build=True)

    run_txn(system, work)
    audit_tree(tree)
    live = set(tree.all_entries())
    assert live == set(unique_keys) - set(to_delete)
    # pseudo-deleted entries remain physically present
    physical = set(tree.all_entries(include_pseudo_deleted=True))
    assert physical == set(unique_keys)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=300),
       leaf_capacity=st.integers(min_value=2, max_value=9))
def test_bulk_load_equals_sorted_input(n, leaf_capacity):
    system, tree = fresh_tree(leaf_capacity=leaf_capacity)
    loader = BulkLoader(tree)
    for k in range(n):
        loader.append((k,), RID(k // 16, k % 16))
    loader.finish()
    audit_tree(tree)
    assert [e[0] for e in tree.all_entries()] == list(range(n))
    assert tree.clustering_factor() == 1.0


@settings(max_examples=40, deadline=None)
@given(keys=keys_strategy)
def test_ib_batch_agrees_with_single_inserts(keys):
    """The multi-key IB interface must produce the same logical contents
    as one-at-a-time transaction inserts of the same key set."""
    key_set = sorted({(kv, rid) for kv, rid in keys})

    system_a, tree_a = fresh_tree()

    def work_a(txn):
        count = yield from tree_a.ib_insert_batch(
            txn, [(kv, rid) for kv, rid in key_set], IBCursor())
        return count

    run_txn(system_a, work_a)

    system_b, tree_b = fresh_tree()

    def work_b(txn):
        for kv, rid in key_set:
            yield from tree_b.txn_insert_key(txn, (kv,), rid,
                                             during_build=True)

    run_txn(system_b, work_b)
    audit_tree(tree_a)
    audit_tree(tree_b)
    a = list(tree_a.all_entries())
    b = list(tree_b.all_entries())
    assert a == b == key_set


@settings(max_examples=30, deadline=None)
@given(split_at=st.integers(min_value=0, max_value=99))
def test_force_crash_resume_roundtrip(split_at):
    """Checkpoint at an arbitrary point, crash, resume: final tree equals
    an uninterrupted build (section 3.2.4)."""
    system, tree = fresh_tree(leaf_capacity=4)
    loader = BulkLoader(tree)
    for k in range(split_at):
        loader.append((k,), RID(0, k % 16))
    tree.force()
    for k in range(split_at, 100):
        loader.append((k,), RID(0, k % 16))
    tree.crash()
    loader = BulkLoader.resume(tree)
    for k in range(split_at, 100):
        loader.append((k,), RID(0, k % 16))
    loader.finish()
    audit_tree(tree)
    assert [e[0] for e in tree.all_entries()] == list(range(100))


small_keys = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.builds(RID, st.integers(0, 2), st.integers(0, 2))),
    min_size=1, max_size=24)
steps_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "ib", "drain"]),
              small_keys, st.booleans()),
    min_size=1, max_size=12)

#: IB fills eight leaves (every specialized split leaves IB's key alone
#: on the new leaf, so each leaf's first entry *is* its lower fence), IB's
#: rollback physically removes all of it (every leaf empty, fences
#: intact), then inserts land on fence values and between them -- the two
#: cases that made the old code distrust key-guided search.
EMPTIED_THEN_REFILLED = [
    ("ib", [(k, RID(0, 0)) for k in range(32)], False),
    ("insert", [(k, RID(0, 0)) for k in range(0, 32, 3)], True),
    ("insert", [(k, RID(1, 1)) for k in range(1, 32, 5)], False),
    ("drain", [(k, RID(2, 2)) for k in range(32)], True),
]


@settings(max_examples=60, deadline=None)
@given(steps=steps_strategy)
@example(steps=EMPTIED_THEN_REFILLED)
def test_descent_fences_equal_structural_fences(steps):
    """Under insert/delete/rollback/split interleavings the fences a
    descent reports (and every split patches) are the fences the audit
    derives structurally, and "this leaf covers the key" is exactly "a
    descent for the key ends here"."""
    system, tree = fresh_tree(leaf_capacity=4)
    # logical undo finds the tree through the catalog; without an entry
    # a rollback would leave the tree untouched
    system.indexes["idx"] = SimpleNamespace(tree=tree)

    def body():
        for kind, keys, commit in steps:
            txn = system.txns.begin(kind)
            if kind == "ib":
                batch = sorted({(kv, rid) for kv, rid in keys})
                yield from tree.ib_insert_batch(txn, batch, IBCursor())
            elif kind == "drain":
                yield from tree.sf_drain_apply_batch(
                    txn, [("delete" if n % 3 == 0 else "insert", (kv,),
                           rid) for n, (kv, rid) in enumerate(keys)])
            else:
                for kv, rid in keys:
                    if kind == "insert":
                        yield from tree.txn_insert_key(
                            txn, (kv,), rid, during_build=True)
                    else:  # physical when present, a tombstone when not
                        yield from tree.txn_delete_key(
                            txn, (kv,), rid, during_build=False)
            yield from (txn.commit() if commit else txn.rollback())

    proc = system.spawn(body(), name="prop")
    system.run()
    if proc.error is not None:
        raise proc.error
    structural = audit_tree(tree)["fences"]
    # what descents memoised and splits patched along the way is exact
    assert tree._fences.items() <= structural.items()
    leaves = list(tree.leaf_chain())
    for leaf in leaves:
        low_fence, _high = structural[leaf.page_no]
        probe = low_fence if low_fence is not None else (-1,)
        landed, _path = tree._traverse(probe, count=False)
        assert landed is leaf
    assert tree._fences == structural
    probes = {(kv, rid) for _kind, keys, _c in steps
              for kv, rid in keys}
    probes.update(fence for pair in structural.values()
                  for fence in pair if fence is not None)
    probes.update([(-1,), (41,)])
    for probe in probes:
        landed, _path = tree._traverse(probe, count=False)
        for leaf in leaves:
            assert tree._leaf_covers(leaf, probe) == (leaf is landed)


# -- flat entries: (*key, rid) orders and searches as (key, rid) did ---------

COLUMNS = {"i": st.integers(min_value=-40, max_value=40),
           "s": st.text(alphabet="ab\x00\xe9", max_size=3)}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_flat_entries_order_and_search_as_nested_pairs_did(data):
    """Keys of one to three int or str columns: the flat entries sort as
    the nested ``(key, rid)`` pairs did, the key tuple is the search
    sentinel for the key's first entry, the range reader's bounds are
    exact, and a message prints the entry as it printed the pair."""
    kinds = data.draw(st.lists(st.sampled_from("is"), min_size=1,
                               max_size=3))
    keys = st.tuples(*[COLUMNS[kind] for kind in kinds])
    rids = st.builds(RID, st.integers(0, 3), st.integers(0, 3))
    pairs = data.draw(st.lists(st.tuples(keys, rids), min_size=1,
                               max_size=60, unique=True))
    entries = sorted(make_entry(key, rid) for key, rid in pairs)
    assert entries == [make_entry(key, rid) for key, rid in sorted(pairs)]
    for key, rid in pairs:
        entry = make_entry(key, rid)
        assert entry_key(entry) == key and entry_rid(entry) == rid
        assert format_entry(entry) == f"({key!r}, {format_rid(rid)})"

    for probe in data.draw(st.lists(keys, max_size=4)) + [pairs[0][0]]:
        at = bisect_left(entries, probe)
        assert at == sum(entry_key(entry) < probe for entry in entries)
        if any(entry_key(entry) == probe for entry in entries):
            assert entry_key(entries[at]) == probe

    system, tree = fresh_tree(leaf_capacity=4)
    BulkLoader(tree).extend(entries)
    descriptor = SimpleNamespace(tree=tree)
    low, high = sorted(data.draw(st.tuples(keys, keys)))
    for inclusive in (True, False):
        def beyond(entry):
            key = entry_key(entry)
            return key > high if inclusive else key >= high

        inside = [entry for entry in entries
                  if low <= entry_key(entry) and not beyond(entry)]
        after = [entry for entry in entries if beyond(entry)][:1]
        assert list(_entries_in_range(descriptor, low, high,
                                      inclusive_high=inclusive)) \
            == inside + after
