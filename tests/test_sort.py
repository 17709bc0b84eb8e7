"""Unit tests for the restartable sort (repro.sort)."""

import random

import pytest

from repro.btree import BTree, BulkLoader
from repro.btree.node import entry_key, entry_rid
from repro.errors import IndexBuildError, SortRestartError
from repro.sort import (
    RestartableMerger,
    RunFormation,
    RunStore,
    SortRun,
    final_merger,
    merge_pass,
    merge_to_single,
)
from repro.storage.rid import RID
from repro.system import System, SystemConfig
from tests.loser_tree import INF, LoserTree


# -- LoserTree -----------------------------------------------------------------


def test_loser_tree_basic_merge_order():
    tree = LoserTree(4)
    for slot, value in enumerate([7, 3, 9, 1]):
        tree.set(slot, value)
    tree.build()
    produced = []
    while not tree.exhausted:
        slot, value = tree.pop()
        produced.append(value)
        tree.set(slot, INF)
        tree.fixup(slot)
    assert produced == [1, 3, 7, 9]


def test_loser_tree_streams():
    streams = [[1, 4, 7], [2, 5, 8], [3, 6, 9]]
    positions = [0, 0, 0]
    tree = LoserTree(3)
    for slot in range(3):
        tree.set(slot, streams[slot][0])
        positions[slot] = 1
    tree.build()
    out = []
    while not tree.exhausted:
        slot, value = tree.pop()
        out.append(value)
        nxt = (streams[slot][positions[slot]]
               if positions[slot] < len(streams[slot]) else INF)
        positions[slot] += 1
        tree.set(slot, nxt)
        tree.fixup(slot)
    assert out == list(range(1, 10))


def test_loser_tree_single_slot():
    tree = LoserTree(1)
    tree.set(0, 42)
    tree.build()
    slot, value = tree.pop()
    assert (slot, value) == (0, 42)
    tree.set(0, INF)
    tree.fixup(0)
    assert tree.exhausted


def test_loser_tree_rejects_zero_slots():
    with pytest.raises(ValueError):
        LoserTree(0)


# ``INF`` (the reference's end-of-stream sentinel) orders against every
# key representation a tree holds, both ways round.


def test_infinite_orders_against_ints_and_entries():
    for key in (5, -5, 0, (1, "x", RID(0, 0)), ((3,), (0, 1))):
        assert not (INF < key)
        assert key < INF
        assert INF > key
        assert not (key > INF)
        assert key <= INF
        assert INF >= key
        assert not (INF <= key)
        assert not (key >= INF)
    assert INF <= INF and INF >= INF and INF == INF and not (INF < INF)


# -- SortRun / RunStore ------------------------------------------------------------


def test_run_enforces_sort_order():
    run = SortRun("r")
    run.append(1)
    run.append(2)
    with pytest.raises(SortRestartError):
        run.append(1)


def test_run_crash_truncates_to_stable():
    run = SortRun("r")
    for k in (1, 2, 3):
        run.append(k)
    run.force()
    run.append(4)
    run.crash()
    assert run.keys == [1, 2, 3]


def test_store_crash_drops_fully_volatile_runs():
    store = RunStore()
    r1 = store.new_run()
    r1.append(1)
    r1.force()
    r2 = store.new_run()
    r2.append(5)
    store.crash()
    assert r1.name in store.runs
    assert r2.name not in store.runs


# -- run formation ------------------------------------------------------------------


def sorted_check(runs):
    for run in runs:
        assert run.keys == sorted(run.keys)


def test_run_formation_produces_sorted_runs_covering_input():
    rng = random.Random(7)
    keys = [rng.randrange(10_000) for _ in range(2_000)]
    store = RunStore()
    sorter = RunFormation(store, workspace_size=32)
    for key in keys:
        sorter.push(key)
    runs = sorter.finish()
    sorted_check(runs)
    everything = sorted(k for run in runs for k in run.keys)
    assert everything == sorted(keys)
    # replacement selection: average run length about 2x workspace
    assert len(runs) < len(keys) / 32


def test_run_formation_sorted_input_yields_one_run():
    store = RunStore()
    sorter = RunFormation(store, workspace_size=8)
    for key in range(100):
        sorter.push(key)
    runs = sorter.finish()
    assert len(runs) == 1
    assert runs[0].keys == list(range(100))


def test_run_formation_reverse_input_yields_many_runs():
    store = RunStore()
    sorter = RunFormation(store, workspace_size=8)
    for key in reversed(range(100)):
        sorter.push(key)
    runs = sorter.finish()
    assert len(runs) > 5
    sorted_check(runs)


def test_sort_checkpoint_and_restart_loses_nothing_before_checkpoint():
    rng = random.Random(3)
    keys = [rng.randrange(1_000) for _ in range(600)]
    store = RunStore()
    sorter = RunFormation(store, workspace_size=16)
    for key in keys[:400]:
        sorter.push(key)
    manifest = sorter.checkpoint(scan_position=400)
    # keep feeding, then crash before another checkpoint
    for key in keys[400:550]:
        sorter.push(key)
    store.crash()
    sorter, scan_position = RunFormation.restore(store, manifest, 16)
    assert scan_position == 400
    # re-push everything from the checkpointed scan position
    for key in keys[400:]:
        sorter.push(key)
    runs = sorter.finish()
    sorted_check(runs)
    everything = sorted(k for run in runs for k in run.keys)
    assert everything == sorted(keys)


def test_sort_restart_appends_to_last_run_when_keys_higher():
    """Section 5.1: if the smallest post-restart key exceeds the
    checkpointed highest key, the same stream continues."""
    store = RunStore()
    sorter = RunFormation(store, workspace_size=4)
    for key in range(20):
        sorter.push(key)
    manifest = sorter.checkpoint(scan_position=20)
    runs_before = len(store.runs)
    store.crash()
    sorter, _pos = RunFormation.restore(store, manifest, 4)
    for key in range(20, 40):  # all higher than checkpointed highest (19)
        sorter.push(key)
    runs = sorter.finish()
    assert len(runs) == runs_before == 1
    assert runs[0].keys == list(range(40))


def test_sort_restart_opens_new_run_when_keys_lower():
    store = RunStore()
    sorter = RunFormation(store, workspace_size=4)
    for key in range(100, 120):
        sorter.push(key)
    manifest = sorter.checkpoint(scan_position=20)
    store.crash()
    sorter, _pos = RunFormation.restore(store, manifest, 4)
    for key in range(20):  # all lower than checkpointed highest
        sorter.push(key)
    runs = sorter.finish()
    assert len(runs) == 2
    sorted_check(runs)


# A manifest from longer runs, restored over shorter (reused sealed)
# runs, fails fast instead of merging from the wrong offsets.


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


# -- merge ------------------------------------------------------------------------------


def make_runs(store, lists):
    runs = []
    for keys in lists:
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.force()
        run.closed = True
        runs.append(run)
    return runs


def test_merger_produces_global_order():
    store = RunStore()
    runs = make_runs(store, [[1, 4, 7], [2, 5, 8], [3, 6, 9]])
    merger = RestartableMerger(runs, store.new_run())
    out = merger.run_to_completion()
    assert out.keys == list(range(1, 10))


def test_merger_with_duplicate_keys():
    store = RunStore()
    runs = make_runs(store, [[1, 1, 2], [1, 2, 2]])
    merger = RestartableMerger(runs, store.new_run())
    out = merger.run_to_completion()
    assert out.keys == [1, 1, 1, 2, 2, 2]


def test_merge_checkpoint_restart_no_loss_no_duplication():
    rng = random.Random(11)
    lists = [sorted(rng.randrange(10_000) for _ in range(200))
             for _ in range(4)]
    store = RunStore()
    runs = make_runs(store, lists)
    merger = RestartableMerger(runs, store.new_run())
    merger.pop_many(300)
    manifest = merger.checkpoint()
    merger.pop_many(250)  # not checkpointed; will be lost
    store.crash()
    merger = RestartableMerger.restore(store, manifest)
    out = merger.run_to_completion()
    expected = sorted(k for keys in lists for k in keys)
    assert out.keys == expected


def test_merge_restart_counters_reposition_inputs_exactly():
    store = RunStore()
    runs = make_runs(store, [[1, 3, 5], [2, 4, 6]])
    merger = RestartableMerger(runs, store.new_run())
    merger.pop_many(3)  # 1, 2, 3
    manifest = merger.checkpoint()
    assert manifest["counters"] == [3, 2]  # next: 5 (pos 3), 4 (pos 2)
    store.crash()
    merger = RestartableMerger.restore(store, manifest)
    out = merger.run_to_completion()
    assert out.keys == [1, 2, 3, 4, 5, 6]


def test_merge_pass_and_to_single():
    rng = random.Random(5)
    lists = [sorted(rng.randrange(500) for _ in range(50))
             for _ in range(10)]
    store = RunStore()
    runs = make_runs(store, lists)
    single = merge_to_single(store, runs, fanin=3)
    expected = sorted(k for keys in lists for k in keys)
    assert single.keys == expected


def test_final_merger_streams_last_pass():
    rng = random.Random(9)
    lists = [sorted(rng.randrange(500) for _ in range(40))
             for _ in range(9)]
    store = RunStore()
    runs = make_runs(store, lists)
    merger = final_merger(store, runs, fanin=4)
    out = []
    while True:
        value = merger.pop()
        if value is None:
            break
        out.append(value)
    assert out == sorted(k for keys in lists for k in keys)


def test_final_merger_empty_input():
    store = RunStore()
    assert final_merger(store, [], fanin=4) is None


def test_end_to_end_sort_random_data():
    rng = random.Random(42)
    keys = [(rng.randrange(1_000), (rng.randrange(50), rng.randrange(16)))
            for _ in range(3_000)]
    store = RunStore()
    sorter = RunFormation(store, workspace_size=64)
    for key in keys:
        sorter.push(key)
    runs = sorter.finish()
    single = merge_to_single(store, runs, fanin=8)
    assert single.keys == sorted(keys)


# -- stale merge manifests fail fast ------------------------------------------


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


# -- engine equivalence ----------------------------------------------------------
#
# The builds select with heapq and merge with one stable sorted().  Below
# are the engines they replaced -- replacement selection and the merge, a
# key at a time on a LoserTree -- kept as the reference: same runs, same
# manifests, same counters.
#
# Which of two *equal* keys wins a tournament match depends on the matches
# played before, so where equal keys meet (never in a build: the RID is
# part of the key) the reference's attribution of a key to an input is an
# accident of history.  What must still agree there is asserted
# separately: for run formation everything, for the merge everything at
# completion.


class ReferenceRunFormation:
    """Replacement selection on a LoserTree over ``(run sequence, key)``
    pairs, a key at a time."""

    def __init__(self, store, workspace_size):
        self.store = store
        self.workspace_size = workspace_size
        self._tree = LoserTree(workspace_size)
        self._occupied = 0
        self._emit_seq = 0
        self._runs_by_seq = {}
        self._run_order = []

    def push(self, key):
        tree = self._tree
        if self._occupied < self.workspace_size:
            current = self._runs_by_seq.get(self._emit_seq)
            if current is None or current.highest_key is None \
                    or key >= current.highest_key:
                seq = self._emit_seq
            else:
                seq = self._emit_seq + 1
            tree.set(self._occupied, (seq, key))
            self._occupied += 1
            if self._occupied == self.workspace_size:
                tree.build()
            return
        slot, (seq, smallest) = tree.pop()
        self._emit(seq, smallest)
        tree.set(slot, (seq if key >= smallest else seq + 1, key))
        tree.fixup(slot)

    def _emit(self, seq, key):
        run = self._runs_by_seq.get(seq)
        if run is None:
            run = self.store.new_run()
            self._runs_by_seq[seq] = run
            self._run_order.append(run)
            if seq > self._emit_seq:
                previous = self._runs_by_seq.get(self._emit_seq)
                if previous is not None:
                    previous.closed = True
                self._emit_seq = seq
        run.append(key)

    def drain(self):
        tree = self._tree
        if self._occupied < self.workspace_size:
            for seq, key in sorted(tree.values[:self._occupied]):
                self._emit(seq, key)
        else:
            while not tree.exhausted:
                slot, (seq, key) = tree.pop()
                self._emit(seq, key)
                tree.set(slot, INF)
                tree.fixup(slot)
        self._tree = LoserTree(self.workspace_size)
        self._occupied = 0

    def checkpoint(self, scan_position):
        self.drain()
        for run in self._run_order:
            run.force()
        last = self._run_order[-1] if self._run_order else None
        manifest = {
            "phase": "sort",
            "scan_position": scan_position,
            "runs": [run.name for run in self._run_order],
            "run_lengths": {run.name: len(run) for run in self._run_order},
            "emit_seq": self._emit_seq,
            "last_run": last.name if last is not None else None,
            "last_highest_key": last.highest_key if last is not None else None,
        }
        return manifest

    def finish(self):
        self.drain()
        for run in self._run_order:
            run.closed = True
            run.force()
        return list(self._run_order)

    @classmethod
    def restore(cls, store, manifest, workspace_size):
        """The restart steps touch no tree: take them from the engine
        and carry the run bookkeeping over."""
        restored, _position = RunFormation.restore(
            store, manifest, workspace_size)
        sorter = cls(store, workspace_size)
        sorter._emit_seq = restored._emit_seq
        sorter._runs_by_seq = restored._runs_by_seq
        sorter._run_order = restored._run_order
        return sorter


def store_image(store):
    return [(run.name, run.keys, run.closed, run.stable_length)
            for run in store.runs.values()]


def scan_keys(rng, count, span):
    """Keys as a scan extracts them: key values repeat, stretches fall,
    the RID makes every key distinct."""
    values = []
    while len(values) < count:
        stretch = rng.randrange(1, 40)
        if rng.random() < 0.3:
            start = rng.randrange(span)
            values.extend(start - step for step in range(stretch))
        else:
            values.extend(rng.randrange(span) for _ in range(stretch))
    return [(value, RID(at // 16, at % 16))
            for at, value in enumerate(values[:count])]


def drive_both(rng, keys, workspace):
    """Feed ``keys`` to the reference a key at a time and to the engine
    in batches, with checkpoints and crash/restores thrown in; every
    manifest and every store image must agree."""
    ref_store, new_store = RunStore("sort:i"), RunStore("sort:i")
    ref = ReferenceRunFormation(ref_store, workspace)
    new = RunFormation(new_store, workspace)
    at = 0
    manifest = None
    while at < len(keys):
        batch = keys[at:at + rng.choice([1, 3, 16, 16, 16, 97])]
        for key in batch:
            ref.push(key)
        new.push_many(batch)
        at += len(batch)
        roll = rng.random()
        if roll < 0.15:
            manifest = new.checkpoint(scan_position=at)
            assert manifest == ref.checkpoint(scan_position=at)
        elif roll < 0.25 and manifest is not None:
            ref_store.crash()
            new_store.crash()
            at = manifest["scan_position"]
            ref = ReferenceRunFormation.restore(ref_store, manifest, workspace)
            new, position = RunFormation.restore(new_store, manifest,
                                                 workspace)
            assert position == at
        assert store_image(new_store) == store_image(ref_store)
    assert [run.name for run in new.finish()] \
        == [run.name for run in ref.finish()]
    assert store_image(new_store) == store_image(ref_store)
    return new_store


#: powers of two, the builds' 256 // partitions shapes, and odd ones
WORKSPACES = [1, 2, 3, 5, 8, 12, 21, 32, 33, 64, 85]


@pytest.mark.parametrize("workspace", WORKSPACES)
def test_run_formation_equals_the_tournament_engine(workspace):
    for seed in range(12):
        rng = random.Random(workspace * 100 + seed)
        # short inputs leave the workspace partly filled at the end
        count = rng.choice([0, 1, workspace - 1, workspace, workspace + 1,
                            rng.randrange(600)])
        keys = scan_keys(rng, max(count, 0), rng.choice([4, 60, 10**6]))
        store = drive_both(rng, keys, workspace)
        assert sorted(key for run in store.runs.values()
                      for key in run.keys) == sorted(keys)


@pytest.mark.parametrize("workspace", WORKSPACES)
def test_run_formation_with_equal_keys_in_the_workspace(workspace):
    """Plain ints that repeat: the runs and manifests never depend on
    which of two equal keys left first."""
    for seed in range(12):
        rng = random.Random(workspace * 10 + seed)
        span = rng.choice([2, 7, 40])
        keys = [rng.randrange(span) for _ in range(rng.randrange(400))]
        drive_both(rng, keys, workspace)


def reference_merge(inputs, output, counters=None):
    """The merge on a LoserTree: returns ``(pop, counters, tree)``."""
    counters = list(counters) if counters is not None else [1] * len(inputs)
    tree = LoserTree(len(inputs))

    def key_at(slot):
        keys = inputs[slot].keys
        at = counters[slot] - 1
        return keys[at] if at < len(keys) else INF

    for slot in range(len(inputs)):
        tree.set(slot, key_at(slot))
    tree.build()

    def pop():
        if tree.exhausted:
            return None
        slot, value = tree.pop()
        output.append(value)
        counters[slot] += 1
        tree.set(slot, key_at(slot))
        tree.fixup(slot)
        return value

    return pop, counters, tree


def merge_inputs(rng, fanin, distinct):
    """``fanin`` sorted key lists of uneven length (one may be empty, so
    inputs run dry in mid-batch); ``distinct`` keeps keys apart."""
    lists = []
    for slot in range(fanin):
        count = rng.choice([0, 1, 5, 40, 150])
        if distinct:
            lists.append(sorted(((rng.randrange(50),), (slot, at))
                                for at in range(count)))
        else:
            lists.append(sorted(rng.randrange(12) for _ in range(count)))
    return lists


@pytest.mark.parametrize("batch", [1, 7, 64, None])
@pytest.mark.parametrize("fanin", [1, 2, 3, 5, 8])
def test_merger_equals_the_tournament_engine_at_every_batch_boundary(
        fanin, batch):
    for seed in range(6):
        rng = random.Random(fanin * 100 + seed)
        lists = merge_inputs(rng, fanin, distinct=True)
        total = sum(len(keys) for keys in lists)
        expected = sorted(key for keys in lists for key in keys)
        ref_store, new_store = RunStore("m"), RunStore("m")
        ref_runs = make_runs(ref_store, lists)
        ref_out = ref_store.new_run()
        pop, ref_counters, tree = reference_merge(ref_runs, ref_out)
        merger = RestartableMerger(make_runs(new_store, lists),
                                   new_store.new_run())
        manifests = []
        while True:
            got = merger.pop_many(batch if batch is not None else total + 1)
            for _ in got:
                pop()
            assert merger.output.keys == ref_out.keys
            assert merger.counters == ref_counters
            assert merger.exhausted == tree.exhausted
            manifests.append(merger.checkpoint())
            if not got:
                break
        assert pop() is None and merger.pop() is None
        assert merger.output.keys == expected
        # restart from every checkpoint: nothing lost, nothing twice
        for manifest in manifests[::-max(1, len(manifests) // 8)]:
            resumed = RestartableMerger.restore(new_store, manifest)
            assert resumed.output.keys \
                == expected[:manifest["output_length"]]
            del ref_out.keys[manifest["output_length"]:]
            pop, ref_counters, tree = reference_merge(
                ref_runs, ref_out, manifest["counters"])
            resumed.pop_many(5)
            for _ in range(5):
                pop()
            assert resumed.output.keys == ref_out.keys
            assert resumed.counters == ref_counters
            assert resumed.run_to_completion().keys == expected
            assert resumed.counters == [len(keys) + 1 for keys in lists]


@pytest.mark.parametrize("batch", [1, 7, 64, None])
@pytest.mark.parametrize("fanin", [2, 3, 5, 8])
def test_merger_with_equal_keys_in_two_inputs(fanin, batch):
    """Equal keys leave in input order.  The tournament handed them out
    in an order its earlier matches decided, so only the output agrees
    batch by batch; the counters agree once the equal keys are all out --
    at the latest at the end."""
    for seed in range(6):
        rng = random.Random(fanin * 10 + seed)
        lists = merge_inputs(rng, fanin, distinct=False)
        total = sum(len(keys) for keys in lists)
        expected = sorted(key for keys in lists for key in keys)
        ref_store, new_store = RunStore("m"), RunStore("m")
        ref_out = ref_store.new_run()
        pop, ref_counters, tree = reference_merge(
            make_runs(ref_store, lists), ref_out)
        merger = RestartableMerger(make_runs(new_store, lists),
                                   new_store.new_run())
        while True:
            got = merger.pop_many(batch if batch is not None else total + 1)
            for _ in got:
                pop()
            assert merger.output.keys == ref_out.keys
            assert sum(merger.counters) == sum(ref_counters)
            # input order: no input has given a key while a lower one
            # still holds an equal key
            if merger.output.keys:
                last = merger.output.keys[-1]
                given = [slot for slot, keys in enumerate(lists)
                         if merger.counters[slot] > 1
                         and keys[merger.counters[slot] - 2] == last]
                for slot in range(max(given)):
                    keys, counter = lists[slot], merger.counters[slot]
                    assert counter > len(keys) or keys[counter - 1] != last
            manifest = merger.checkpoint()
            resumed = RestartableMerger.restore(new_store, manifest)
            assert resumed.run_to_completion().keys == expected
            resumed.output.truncate(manifest["output_length"])
            resumed.output.closed = False
            if not got:
                break
        assert merger.output.keys == expected
        assert merger.counters == ref_counters


def test_merger_takes_equal_keys_in_input_order():
    store = RunStore()
    runs = make_runs(store, [[1, 3, 3], [2, 3], [3, 4]])
    merger = RestartableMerger(runs, store.new_run())
    assert merger.pop_many(3) == [1, 2, 3]
    assert merger.counters == [3, 2, 1]
    assert merger.pop_many(2) == [3, 3]
    assert merger.counters == [4, 3, 1]
    assert merger.pop_many(9) == [3, 4]
    assert merger.counters == [4, 3, 3]


def input_order_reference(runs, output, counters):
    """The LoserTree merge over ``(key, input)`` pairs: ties go in input
    order, as the merger hands them out, so its counters are the
    reference at every key even where equal keys meet.  Returns the
    tagged output run and :func:`reference_merge`'s triple."""
    store = RunStore("tagged")
    tagged = make_runs(store, [[(key, slot) for key in run.keys]
                               for slot, run in enumerate(runs)])
    tagged_out = store.new_run()
    tagged_out.keys = [(key, -1) for key in output.keys]
    return (tagged_out, *reference_merge(tagged, tagged_out, counters))


@pytest.mark.parametrize("batch", [1, 3, 8, 64])
def test_derived_counters_after_a_restore_inside_a_tie_group(batch):
    """A checkpoint taken while a key shared by several inputs is half
    out: the restored merger's derived counters equal the reference's at
    every batch boundary, through the rest of the tie group and beyond."""
    lists = [[1, 5, 5, 5, 9], [5, 5, 7], [2, 5], [5, 5, 5, 5, 8], [3, 4]]
    expected = sorted(key for keys in lists for key in keys)
    for cut in range(expected.index(5) + 1, len(expected) - 3):
        store = RunStore("m")
        merger = RestartableMerger(make_runs(store, lists), store.new_run())
        merger.pop_many(cut)
        manifest = merger.checkpoint()
        merger.pop_many(2)  # lost to the crash
        store.crash()
        resumed = RestartableMerger.restore(store, manifest)
        ref_out, pop, ref_counters, tree = input_order_reference(
            resumed.inputs, resumed.output, manifest["counters"])
        assert resumed.counters == ref_counters == manifest["counters"]
        while True:
            got = resumed.pop_many(batch)
            for _ in got:
                pop()
            assert resumed.output.keys == [key for key, _slot in ref_out.keys]
            assert resumed.counters == ref_counters
            if not got:
                break
        assert resumed.output.keys == expected


def test_an_open_input_is_refused():
    store = RunStore("m")
    runs = make_runs(store, [[1, 2], [3]])
    runs[1].closed = False
    with pytest.raises(SortRestartError, match="merge input 'm-2' is open"):
        RestartableMerger(runs, store.new_run())
    with pytest.raises(SortRestartError, match="is open"):
        final_merger(store, runs, fanin=4)


# -- batches are checked as a key at a time was ------------------------------------


@pytest.mark.parametrize("held, batch", [
    ([], [1, 2, 2, 5]),            # fine
    ([1, 4], [4, 4, 9]),           # fine, touching the boundary
    ([1, 4], [5, 7, 6, 8]),        # disorder inside the batch
    ([1, 4], [3, 5, 6]),           # disorder across the boundary
    ([], [2, 1]),                  # disorder at the start of an empty run
    ([1], []),                     # nothing to add
])
def test_run_extend_rejects_what_append_rejects(held, batch):
    def attempt(feed):
        run = SortRun("r")
        run.keys.extend(held)
        try:
            feed(run)
        except SortRestartError as exc:
            return run.keys, str(exc)
        return run.keys, None

    def key_at_a_time(run):
        for key in batch:
            run.append(key)

    assert attempt(lambda run: run.extend(batch)) == attempt(key_at_a_time)


def test_closed_run_rejects_a_batch():
    run = SortRun("r")
    run.extend([1, 2])
    run.closed = True
    with pytest.raises(SortRestartError, match="run r is closed"):
        run.extend([3, 4])
    with pytest.raises(SortRestartError, match="run r is closed"):
        run.append(3)
    assert run.keys == [1, 2]


def test_run_extend_names_the_key_that_breaks_the_order():
    run = SortRun("r")
    run.extend([1, 4])
    with pytest.raises(SortRestartError,
                       match="run r: key 6 breaks sort order after 7"):
        run.extend([5, 7, 6, 8])
    assert run.keys == [1, 4, 5, 7]


def composites(*pairs):
    return [(value, RID(0, slot)) for value, slot in pairs]


@pytest.mark.parametrize("unique, held, batch", [
    (False, [(1, 0)], [(2, 1), (2, 2), (3, 3), (9, 4), (9, 5)]),   # fine
    (False, [(1, 0)], [(2, 1), (5, 2), (4, 3), (6, 4)]),  # inside the batch
    (False, [(5, 0)], [(4, 1), (6, 2)]),                  # across the boundary
    (False, [(5, 1)], [(5, 0), (6, 2)]),      # same key value, lower RID
    (True, [(1, 0)], [(2, 1), (3, 2), (3, 3), (4, 4)]),   # duplicate inside
    (True, [(3, 0)], [(3, 1), (4, 2)]),                   # duplicate across
    (True, [], [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]),  # fine
    (True, [], [(2, 0), (1, 1), (1, 2)]),     # disorder before a duplicate
])
def test_batch_loader_rejects_what_append_rejects(unique, held, batch):
    def attempt(feed):
        system = System(SystemConfig(leaf_capacity=4, branch_capacity=4))
        system.create_table("t", ["k", "v"])
        tree = BTree(system, "idx", "t", unique=unique)
        loader = BulkLoader(tree)
        loader.extend(composites(*held))
        try:
            feed(loader)
        except IndexBuildError as exc:
            error = str(exc)
        else:
            error = None
        return (list(tree.all_entries()),
                loader.highest_key, loader.keys_loaded, tree.page_count,
                system.metrics.snapshot(), error)

    def key_at_a_time(loader):
        for entry in composites(*batch):
            loader.append(entry_key(entry), entry_rid(entry))

    together = attempt(lambda loader: loader.extend(composites(*batch)))
    assert together == attempt(key_at_a_time)
    entries, _highest, loaded, _pages, counters, error = together
    assert len(entries) == loaded == counters.get("index.inserts.bulk", 0)
    if error is None:
        assert loaded == len(held) + len(batch)


def test_batch_loader_rejections_keep_their_messages():
    system = System(SystemConfig(leaf_capacity=4, branch_capacity=4))
    system.create_table("t", ["k", "v"])
    loader = BulkLoader(BTree(system, "idx", "t", unique=True))
    with pytest.raises(IndexBuildError, match=(
            r"bulk load keys out of order: \(\(4,\), \(0,2\)\) after "
            r"\(\(5,\), \(0,1\)\)")):
        loader.extend(composites((1, 0), (5, 1), (4, 2)))
    with pytest.raises(IndexBuildError, match=(
            r"cannot build unique index idx: duplicate key value \(5,\)")):
        loader.extend(composites((5, 3), (6, 4)))
    assert loader.keys_loaded == 2
