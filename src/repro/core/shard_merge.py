"""Simulated-cost, crash-safe merge passes for the parallel build.

The serial builders merge eagerly inside :func:`repro.sort.final_merger`
with no yields: the whole pass is one atomic simulator step, so it is
trivially crash-safe and free on the simulated clock (its cost is folded
into the pipelined load).  The parallel build runs one merge worker per
shard *concurrently*, so each worker must charge simulated time -- which
introduces yield points -- while preserving the crash invariant:

    at every yield, the set of closed+forced runs in the store holds each
    key exactly once.

:func:`sim_merge_pass` keeps that invariant the same way the serial
:func:`repro.sort.merge_pass` does, just spread over time: the output run
stays volatile (never forced) while the merge is in flight, and the
completion step -- close + force the output, discard the inputs -- is
synchronous.  A crash mid-merge therefore drops the partial output
(:meth:`RunStore.crash` discards never-forced runs) and leaves the closed
inputs intact; a crash after completion sees only the merged output.
Either way the resumed build rebuilds its final merger from exactly the
surviving closed runs (section 5.2's restart argument, applied at pass
granularity instead of the counter vector).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import SortRestartError
from repro.faultinject.sites import fault_point
from repro.sim.kernel import Delay
from repro.sort.merge import RestartableMerger
from repro.sort.runs import RunStore, SortRun

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: keys merged between two simulated-time charges
MERGE_BATCH = 256


def sim_merge_pass(system: "System", store: RunStore,
                   runs: list[SortRun], fanin: int,
                   shard: Optional[int] = None):
    """Generator: one merge pass charging ``merge_key_cost`` per key.

    Groups of ``fanin`` runs collapse into one run each, exactly like
    :func:`repro.sort.merge_pass`; returns the merged run list.
    """
    if fanin < 2:
        raise SortRestartError("merge fan-in must be at least 2")
    cost = system.config.merge_key_cost
    merged: list[SortRun] = []
    for start in range(0, len(runs), fanin):
        group = runs[start:start + fanin]
        if len(group) == 1:
            merged.append(group[0])
            continue
        output = store.new_run()
        merger = RestartableMerger(group, output)
        while True:
            batch = merger.pop_many(MERGE_BATCH)
            if not batch:
                break
            yield Delay(len(batch) * cost)
            if shard is not None:
                system.metrics.incr(f"psf.merge_keys.{shard}", len(batch))
            fault_point(system.metrics, "psf.merge_batch")
        # Atomic completion (no yields): the output becomes the one
        # stable copy of these keys in the same step the inputs vanish.
        output.closed = True
        output.force()
        for run in group:
            store.discard(run.name)
        merged.append(output)
        fault_point(system.metrics, "psf.merge_run_done")
    return merged


def sim_merge_until(system: "System", store: RunStore,
                    runs: list[SortRun], fanin: int, target: int,
                    shard: Optional[int] = None):
    """Generator: repeat simulated merge passes until ``target`` runs
    remain (or one pass can no longer shrink the list)."""
    current = list(runs)
    while len(current) > max(1, target):
        before = len(current)
        current = yield from sim_merge_pass(system, store, current, fanin,
                                            shard=shard)
        if len(current) >= before:  # pragma: no cover - fanin >= 2
            break
    return current
