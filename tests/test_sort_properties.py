"""Property-based tests (hypothesis) for the restartable sort."""

import random
from itertools import chain, pairwise, starmap
from operator import eq, gt

from hypothesis import given, settings, strategies as st

from repro.btree import BTree, BulkLoader
from repro.btree.node import entry_key, make_entry
from repro.errors import IndexBuildError, SortRestartError
from repro.sort import (
    RestartableMerger,
    RunFormation,
    RunStore,
    SortRun,
    merge_to_single,
)
from repro.storage.rid import RID
from repro.system import System, SystemConfig

keys_st = st.lists(st.integers(min_value=-10_000, max_value=10_000),
                   min_size=0, max_size=400)


@settings(max_examples=60, deadline=None)
@given(keys=keys_st, workspace=st.integers(min_value=1, max_value=32))
def test_sort_then_merge_equals_sorted(keys, workspace):
    store = RunStore()
    sorter = RunFormation(store, workspace)
    for key in keys:
        sorter.push(key)
    runs = sorter.finish()
    for run in runs:
        assert run.keys == sorted(run.keys)
    merged = merge_to_single(store, runs, fanin=4)
    if merged is None:
        assert keys == []
    else:
        assert merged.keys == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(keys=keys_st,
       checkpoint_at=st.integers(min_value=0, max_value=400),
       crash_extra=st.integers(min_value=0, max_value=100),
       workspace=st.integers(min_value=1, max_value=16))
def test_sort_crash_restore_roundtrip(keys, checkpoint_at, crash_extra,
                                      workspace):
    """Checkpoint anywhere, crash anywhere after it, restore, finish:
    the multiset of sorted keys is exact."""
    checkpoint_at = min(checkpoint_at, len(keys))
    crash_at = min(checkpoint_at + crash_extra, len(keys))
    store = RunStore()
    sorter = RunFormation(store, workspace)
    for key in keys[:checkpoint_at]:
        sorter.push(key)
    manifest = sorter.checkpoint(scan_position=checkpoint_at)
    for key in keys[checkpoint_at:crash_at]:
        sorter.push(key)
    store.crash()
    sorter, position = RunFormation.restore(store, manifest, workspace)
    assert position == checkpoint_at
    for key in keys[position:]:
        sorter.push(key)
    runs = sorter.finish()
    merged = merge_to_single(store, runs, fanin=4)
    expected = sorted(keys)
    got = merged.keys if merged is not None else []
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       n_runs=st.integers(min_value=1, max_value=6))
def test_merge_crash_restore_roundtrip(data, n_runs):
    lists = [sorted(data.draw(st.lists(st.integers(0, 1000),
                                       max_size=80)))
             for _ in range(n_runs)]
    total = sum(len(keys) for keys in lists)
    checkpoint_at = data.draw(st.integers(min_value=0, max_value=total))
    crash_extra = data.draw(st.integers(min_value=0, max_value=total))
    store = RunStore()
    runs = []
    for keys in lists:
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.force()
        run.closed = True
        runs.append(run)
    merger = RestartableMerger(runs, store.new_run())
    merger.pop_many(checkpoint_at)
    manifest = merger.checkpoint()
    merger.pop_many(crash_extra)
    store.crash()
    merger = RestartableMerger.restore(store, manifest)
    out = merger.run_to_completion()
    assert out.keys == sorted(k for keys in lists for k in keys)


@settings(max_examples=40, deadline=None)
@given(keys=keys_st, workspace=st.integers(min_value=2, max_value=16))
def test_replacement_selection_run_lengths(keys, workspace):
    """Runs average noticeably more than the workspace size on random
    input (the replacement-selection 2x property, loosely)."""
    store = RunStore()
    sorter = RunFormation(store, workspace)
    for key in keys:
        sorter.push(key)
    runs = sorter.finish()
    if len(keys) > workspace * 6:
        assert len(runs) <= len(keys) / workspace + 1


@settings(max_examples=40, deadline=None)
@given(chunks=st.lists(keys_st, min_size=1, max_size=4))
def test_multiple_checkpoints_compose(chunks):
    """Checkpoint after every chunk; crash after the last checkpoint;
    restore and verify nothing before any checkpoint is lost."""
    workspace = 8
    store = RunStore()
    sorter = RunFormation(store, workspace)
    pushed = 0
    manifest = None
    for chunk in chunks:
        for key in chunk:
            sorter.push(key)
        pushed += len(chunk)
        manifest = sorter.checkpoint(scan_position=pushed)
    store.crash()
    sorter, position = RunFormation.restore(store, manifest, workspace)
    assert position == pushed
    runs = sorter.finish()
    merged = merge_to_single(store, runs, fanin=4)
    all_keys = [k for chunk in chunks for k in chunk]
    got = merged.keys if merged is not None else []
    assert got == sorted(all_keys)


# -- the order checks compare a batch with its sorted copy --------------------
#
# ``SortRun.extend`` and ``BulkLoader.extend`` accept a batch when it
# equals its stable sort.  For keys whose ``==`` agrees with ``<`` that is
# the pairwise ``>`` scan it replaced, equal neighbours included.


def disordered(held, batch):
    """The check the sorted-copy comparison replaced."""
    return any(starmap(gt, pairwise(chain(held, batch))))


small_entries = st.builds(make_entry, st.tuples(st.integers(0, 3)),
                          st.builds(RID, st.integers(0, 1),
                                    st.integers(0, 2)))
ORDER_KEYS = {
    "int": st.integers(-3, 3),
    "str": st.text(alphabet="ab", max_size=2),
    "entry": small_entries,
}


@st.composite
def held_and_batch(draw, keys):
    """A held last key (or none) and a batch, sorted half the time so the
    accepting side is well covered, as a list or a tuple."""
    held = draw(st.lists(keys, max_size=1))
    batch = draw(st.lists(keys, max_size=8))
    if draw(st.booleans()):
        batch.sort()
        if held and draw(st.booleans()):
            held = [min(held + batch[:1])]
    if draw(st.booleans()):
        batch = tuple(batch)
    return held, batch


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(ORDER_KEYS)))
def test_run_order_check_accepts_what_the_pairwise_scan_did(data, kind):
    held, batch = data.draw(held_and_batch(ORDER_KEYS[kind]))
    run = SortRun("r")
    run.keys.extend(held)
    try:
        run.extend(batch)
    except SortRestartError:
        assert disordered(held, batch)
        kept = len(run.keys) - len(held)
        assert not disordered(held, batch[:kept])
        assert disordered(held, batch[:kept + 1])
    else:
        assert not disordered(held, batch)
        assert run.keys == [*held, *batch]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), unique=st.booleans())
def test_loader_order_check_accepts_what_the_pairwise_scan_did(data, unique):
    held, batch = data.draw(held_and_batch(small_entries))
    system = System(SystemConfig(leaf_capacity=4, branch_capacity=4))
    system.create_table("t", ["k", "v"])
    loader = BulkLoader(BTree(system, "idx", "t", unique=unique))
    loader.extend(held)
    chained = [*held, *batch]
    rejected = disordered(held, batch) or unique and any(
        starmap(eq, pairwise(map(entry_key, chained))))
    try:
        loader.extend(batch)
    except IndexBuildError:
        assert rejected
    else:
        assert not rejected
        assert loader.keys_loaded == len(chained)
