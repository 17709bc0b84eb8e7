"""E5 -- Restartable sort: work lost at a crash vs checkpoint interval
(section 5).

Claim: checkpointing the sort phase means "IB would not have to rescan
those data pages up to which the corresponding sorted streams were
checkpointed", and the merge-phase counter vector guarantees "no key is
left out from the merge and no key is output more than once" while only
un-checkpointed merge output is redone.
"""

import random

from repro.bench import print_table
from repro.sort import (
    RestartableMerger,
    RunFormation,
    RunStore,
    merge_to_single,
)

TOTAL_KEYS = 5_000
WORKSPACE = 64


def sort_phase_experiment(checkpoint_every, crash_after, seed=5):
    """Feed keys with periodic checkpoints; crash; measure re-pushed keys."""
    rng = random.Random(seed)
    keys = [rng.randrange(1_000_000) for _ in range(TOTAL_KEYS)]
    store = RunStore()
    sorter = RunFormation(store, WORKSPACE)
    manifest = None
    for position, key in enumerate(keys):
        if position == crash_after:
            break
        sorter.push(key)
        if checkpoint_every and position and position % checkpoint_every == 0:
            manifest = sorter.checkpoint(scan_position=position + 1)
    store.crash()
    if manifest is None:
        resume_from = 0
        sorter = RunFormation(store, WORKSPACE)
    else:
        sorter, resume_from = RunFormation.restore(store, manifest,
                                                   WORKSPACE)
    rescanned = crash_after - resume_from
    for key in keys[resume_from:]:
        sorter.push(key)
    runs = sorter.finish()
    merged = merge_to_single(store, runs, fanin=8)
    assert merged.keys == sorted(keys)
    return rescanned


def merge_phase_experiment(checkpoint_every, crash_after, seed=6):
    rng = random.Random(seed)
    lists = [sorted(rng.randrange(1_000_000) for _ in range(1_000))
             for _ in range(5)]
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
    manifest = None
    produced = 0
    while produced < crash_after:
        if merger.pop() is None:
            break
        produced += 1
        if checkpoint_every and produced % checkpoint_every == 0:
            manifest = merger.checkpoint()
    store.crash()
    if manifest is None:
        merger = RestartableMerger(runs, store.new_run())
        redone = produced
    else:
        merger = RestartableMerger.restore(store, manifest)
        redone = produced - manifest["output_length"]
    out = merger.run_to_completion()
    assert out.keys == sorted(k for keys in lists for k in keys)
    return redone


def run_e5():
    crash_after = 4_000
    sort_rows = []
    for interval in (0, 2_000, 1_000, 500, 250):
        rescanned = sort_phase_experiment(interval, crash_after)
        sort_rows.append([interval or "none", crash_after, rescanned,
                          f"{100 * rescanned / crash_after:.0f}%"])
    merge_rows = []
    merge_crash = 3_500
    for interval in (0, 2_000, 1_000, 500, 250):
        redone = merge_phase_experiment(interval, merge_crash)
        merge_rows.append([interval or "none", merge_crash, redone,
                           f"{100 * redone / merge_crash:.0f}%"])
    return sort_rows, merge_rows


def test_e5_restartable_sort():
    sort_rows, merge_rows = run_e5()
    print_table(
        "E5a: sort phase -- keys re-pushed after a crash at key 4000 "
        "(section 5.1)",
        ["ckpt interval", "keys before crash", "keys redone", "redone %"],
        sort_rows,
    )
    print_table(
        "E5b: merge phase -- keys re-merged after a crash at key 3500 "
        "(section 5.2)",
        ["ckpt interval", "keys before crash", "keys redone", "redone %"],
        merge_rows,
    )
    # Tighter checkpoints lose monotonically less work; no checkpoints
    # lose everything.
    sort_losses = [r[2] for r in sort_rows]
    assert sort_losses[0] == 4_000
    assert all(a >= b for a, b in zip(sort_losses, sort_losses[1:]))
    merge_losses = [r[2] for r in merge_rows]
    assert merge_losses[0] == 3_500
    assert all(a >= b for a, b in zip(merge_losses, merge_losses[1:]))
    assert merge_losses[-1] <= 250
