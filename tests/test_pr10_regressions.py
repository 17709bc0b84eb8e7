"""Regression tests for the compressed-key sort / fast-rebuild PR.

Three bugs this PR fixed stay pinned here:

1. ``_Infinite`` (the tournament's end-of-stream sentinel) lacked the
   reflected comparison operators, so a bare ``key < INF`` raised
   TypeError the moment the codec put plain ints or ``SpilledKey``
   wrappers in a tree -- and the hot loops now rely on exactly that bare
   ``<`` being total (the isinstance guards were removed).
2. ``RestartableMerger.restore`` accepted counters pointing outside the
   restored runs and ``RunFormation.restore`` accepted run lengths longer
   than the surviving run -- both silently merged from the wrong offsets
   when a stale manifest was applied to *reused sealed runs* instead of
   failing fast.
3. Codec-on builds must be invisible: the tree built with
   ``compressed_keys=True`` is entry-for-entry identical to the
   codec-off tree at every shard count.
"""

import pytest

from repro.core import BuildOptions, IndexSpec, IndexState, \
    ParallelSFBuilder
from repro.errors import SortRestartError
from repro.sim.kernel import Delay
from repro.sort import (
    KeyCodec,
    RestartableMerger,
    RunFormation,
    RunStore,
    SpilledKey,
)
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec
from tests.loser_tree import INF, LoserTree


# -- 1: the sentinel's total order over mixed key representations -----------


def test_infinite_orders_against_ints_and_spilled_keys():
    spilled = SpilledKey(3, ((1, "x"), (0, 0)))
    for key in (5, -5, 0, spilled):
        assert not (INF < key)
        assert key < INF
        assert INF > key
        assert not (key > INF)
        assert key <= INF
        assert INF >= key
        assert not (INF <= key)
        assert not (key >= INF)
    assert INF <= INF and INF >= INF and INF == INF and not (INF < INF)


def test_loser_tree_drains_mixed_int_and_spilled_values():
    """The codec path mixes plain ints and SpilledKey wrappers in one
    tree; draining replaces slots with INF.  Before the fix the first
    ``int < INF`` match raised TypeError."""
    # Codes are disjoint from the plain ints, as the codec's sentinel
    # fields guarantee for real streams; the two code-4 wrappers break
    # their tie on the raw key.
    values = [7, SpilledKey(4, ((1,), (0, 0))), 3,
              SpilledKey(8, ((9,), (0, 0))), 12, SpilledKey(4, ((0,), (1, 1)))]
    tree = LoserTree(len(values))
    for slot, value in enumerate(values):
        tree.set(slot, value)
    tree.build()
    drained = []
    while not tree.exhausted:
        slot, value = tree.pop()
        drained.append(value)
        tree.set(slot, INF)
        tree.fixup(slot)
    assert drained == sorted(values)


def test_merger_pop_many_across_exact_spilled_boundary():
    codec = KeyCodec("i")
    low = [codec.encode((v,), (0, v)) for v in range(0, 10, 2)]
    # Out-of-window values spill; they interleave with the exact codes.
    high = [codec.encode((v,), (0, 1)) for v in (1, 3, 1 << 50, (1 << 50) + 1)]
    assert any(isinstance(e, SpilledKey) for e in high)
    store = RunStore(prefix="mix")
    runs = []
    for keys in (low, high):
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.closed = True
        runs.append(run)
    merger = RestartableMerger(runs, store.new_run())
    out = []
    while True:
        batch = merger.pop_many(3)
        if not batch:
            break
        out.extend(batch)
    assert out == sorted(low + high)
    assert [codec.decode(e)[0][0] for e in out] \
        == sorted(v for v in [0, 2, 4, 6, 8, 1, 3, 1 << 50, (1 << 50) + 1])


# -- 2: stale manifests fail fast instead of merging from wrong offsets -----


def _two_runs(store):
    runs = []
    for keys in ([1, 4, 9], [2, 3]):
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.closed = True
        runs.append(run)
    return runs


def test_merger_rejects_counter_beyond_run_end():
    store = RunStore(prefix="m")
    runs = _two_runs(store)
    with pytest.raises(SortRestartError, match="out of range"):
        RestartableMerger(runs, store.new_run(), counters=[5, 1])
    with pytest.raises(SortRestartError, match="out of range"):
        RestartableMerger(runs, store.new_run(), counters=[0, 1])


def test_merger_restore_rejects_stale_manifest_on_shorter_runs():
    """A checkpoint taken against longer runs, restored over reused
    (shorter) sealed runs, must not silently reposition past the end."""
    store = RunStore(prefix="m")
    runs = _two_runs(store)
    merger = RestartableMerger(runs, store.new_run())
    for _ in range(4):
        merger.pop()
    manifest = merger.checkpoint()
    runs[0].keys[:] = runs[0].keys[:1]  # the "reused" run is shorter
    with pytest.raises(SortRestartError, match="out of range"):
        RestartableMerger.restore(store, manifest)


def test_run_formation_restore_rejects_stale_run_lengths():
    store = RunStore(prefix="s")
    sorter = RunFormation(store, 4)
    for key in [5, 1, 8, 2, 9, 3]:
        sorter.push(key)
    manifest = sorter.checkpoint(scan_position=6)
    name = manifest["runs"][-1]
    manifest["run_lengths"][name] = len(store.get(name)) + 2
    with pytest.raises(SortRestartError, match="stale manifest"):
        RunFormation.restore(store, manifest, 4)


def test_run_formation_restore_prune_flag_controls_foreign_runs():
    store = RunStore(prefix="s")
    sorter = RunFormation(store, 4)
    for key in [5, 1, 8, 2]:
        sorter.push(key)
    manifest = sorter.checkpoint(scan_position=4)
    foreign = store.new_run()
    foreign.append(42)
    foreign.force()
    RunFormation.restore(store, manifest, 4, prune=False)
    assert foreign.name in store.runs  # shard-shared store: kept
    RunFormation.restore(store, manifest, 4)
    assert foreign.name not in store.runs  # exclusive store: discarded


# -- 3: codec on/off entry-for-entry equivalence at P in {1, 2, 4} ----------


def _small_config():
    return SystemConfig(page_capacity=8, leaf_capacity=8, branch_capacity=8,
                        sort_workspace=16, merge_fanin=4)


def _entries(system, name="idx"):
    tree = system.indexes[name].tree
    return [(e.key_value, tuple(e.rid), e.pseudo_deleted)
            for e in tree.all_entries(include_pseudo_deleted=True)]


def _build(partitions, compressed, *, seed=7, preload=120, operations=30):
    """One parallel SF build under a scripted post-scan workload (the
    same equivalence harness as test_parallel_build)."""
    system = System(_small_config(), seed=seed)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=operations, workers=1,
                        rollback_fraction=0.2, think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    preload_proc = system.spawn(driver.preload(preload), name="preload")
    system.run()
    assert preload_proc.error is None

    options = BuildOptions(partitions=partitions, compressed_keys=compressed)
    builder = ParallelSFBuilder(system, table, IndexSpec.of("idx", ["k"]),
                                options=options)
    build_proc = system.spawn(builder.run(), name="builder")

    def release_after_scan():
        while "scan_done" not in builder.timings:
            yield Delay(0.5)
        driver.spawn_workers()

    system.spawn(release_after_scan(), name="late-workload")
    system.run()
    if build_proc.error is not None:
        raise build_proc.error
    assert system.indexes["idx"].state is IndexState.AVAILABLE
    audit_index(system, system.indexes["idx"])
    return system


@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_codec_build_entry_for_entry_equivalent(partitions):
    plain = _build(partitions, compressed=False)
    coded = _build(partitions, compressed=True)
    assert _entries(coded) == _entries(plain)
    assert _entries(coded)  # non-vacuous
