"""Restartable merge phase (section 5.2).

An N-way tournament merges N sorted input streams.  Restartability rests
on the paper's counter vector:

    "Associate with the tournament tree a vector of N counters, where each
    counter is associated with one input stream ...  while outputting a
    value from the tree, we increment by one the counter associated with
    the input stream from which that value came."

A checkpoint forces the output stream and records the counters plus the
output's end-of-file; restart truncates the output back to that position,
repositions every input to its counter, and rebuilds the tournament --
"no key is left out from the merge and no key is output more than once".

Here the merge is one stable ``sorted()`` (it produces what the tournament
would, ``tests/loser_tree.py`` being the reference tree) and the counter
vector is derived from the last key produced, so it is exact after every
key, whatever the batch size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Optional

from repro.errors import SortRestartError
from repro.sort.runs import RunStore, SortRun


class RestartableMerger:
    """Merge N input runs into one output run with checkpoint support.

    The closed inputs' remaining keys, concatenated in input order, go
    through one stable ``sorted()`` (a C merge of sorted runs; equal keys
    leave in input order) and :meth:`pop_many` slices it.
    """

    def __init__(self, inputs: list[SortRun], output: SortRun,
                 counters: Optional[list[int]] = None) -> None:
        if not inputs:
            raise SortRestartError("merge needs at least one input")
        self.inputs = list(inputs)
        self.output = output
        # Counters are 1-based positions of the next key to read from each
        # input, as in the paper ("All the counters are initialized to 1").
        firsts = [1] * len(self.inputs) if counters is None else list(counters)
        if len(firsts) != len(self.inputs):
            raise SortRestartError("one counter per input stream required")
        # A counter is the 1-based position of the next key to read, so the
        # legal range is [1, len(run) + 1] (the latter: input exhausted).
        # Restored counters outside it mean the checkpoint does not belong
        # to these runs -- e.g. a stale manifest applied to reused sealed
        # runs -- and would silently merge from the wrong offsets.
        for run, counter in zip(self.inputs, firsts):
            if not run.closed:
                raise SortRestartError(f"merge input {run.name!r} is open")
            if not 1 <= counter <= len(run.keys) + 1:
                raise SortRestartError(
                    f"counter {counter} out of range for run {run.name!r} "
                    f"with {len(run.keys)} keys")
        self._first_counters = firsts
        self._merged = sorted(chain.from_iterable(
            run.keys[counter - 1:]
            for run, counter in zip(self.inputs, firsts)))
        self._taken = 0  # keys of _merged produced so far

    @property
    def counters(self) -> list[int]:
        """The section 5.2 counter vector, derived from the last key
        produced: every input gave its keys below it, and the produced
        keys equal to it came from the inputs in input order."""
        counters = list(self._first_counters)
        taken = self._taken
        if taken:
            last = self._merged[taken - 1]
            ties = taken - bisect_left(self._merged, last, 0, taken)
            for slot, run in enumerate(self.inputs):
                at = bisect_left(run.keys, last, counters[slot] - 1)
                took = min(ties, bisect_right(run.keys, last, at) - at)
                ties -= took
                counters[slot] = at + took + 1
        return counters

    # -- producing ---------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._taken == len(self._merged)

    def pop(self) -> Optional[Any]:
        """Produce the next merged key (appending it to the output run),
        or None when every input is exhausted."""
        batch = self.pop_many(1)
        return batch[0] if batch else None

    def pop_many(self, limit: int) -> list[Any]:
        """Produce up to ``limit`` merged keys, appended to the output
        run as one batch."""
        out = self._merged[self._taken:self._taken + limit]
        if out:
            self._taken += len(out)
            self.output.extend(out)
        return out

    def run_to_completion(self) -> SortRun:
        """Merge everything left."""
        self.output.extend(self._merged[self._taken:])
        self._taken = len(self._merged)
        self.output.closed = True
        self.output.force()
        return self.output

    # -- checkpointing (section 5.2) ---------------------------------------------

    def checkpoint(self) -> dict:
        """Force the output and record counters + output end-of-file."""
        self.output.force()
        return {
            "phase": "merge",
            "inputs": [run.name for run in self.inputs],
            "counters": list(self.counters),
            "output": self.output.name,
            "output_length": len(self.output),
        }

    @classmethod
    def restore(cls, store: RunStore, manifest: dict) -> "RestartableMerger":
        """Resume a merge from its latest checkpoint after a crash."""
        if manifest.get("phase") != "merge":
            raise SortRestartError("manifest is not a merge-phase checkpoint")
        output = store.get(manifest["output"])
        # "Truncate the tail of the output file so that its end of file
        # position corresponds to the checkpointed information."
        output.truncate(manifest["output_length"])
        output.closed = False
        inputs = [store.get(name) for name in manifest["inputs"]]
        return cls(inputs, output, counters=list(manifest["counters"]))


def merge_pass(store: RunStore, runs: list[SortRun], fanin: int,
               ) -> list[SortRun]:
    """One full merge pass: groups of ``fanin`` runs -> one run each."""
    if fanin < 2:
        raise SortRestartError("merge fan-in must be at least 2")
    merged: list[SortRun] = []
    for start in range(0, len(runs), fanin):
        group = runs[start:start + fanin]
        if len(group) == 1:
            merged.append(group[0])
            continue
        output = store.new_run()
        merger = RestartableMerger(group, output)
        merger.run_to_completion()
        for run in group:
            store.discard(run.name)
        merged.append(output)
    return merged


def merge_to_single(store: RunStore, runs: list[SortRun], fanin: int
                    ) -> Optional[SortRun]:
    """Repeat merge passes until at most one run remains."""
    current = list(runs)
    while len(current) > 1:
        current = merge_pass(store, current, fanin)
    return current[0] if current else None


def final_merger(store: RunStore, runs: list[SortRun], fanin: int
                 ) -> Optional[RestartableMerger]:
    """Prepare the *final* merge as a streaming merger.

    Earlier passes (if the run count exceeds ``fanin``) are performed
    eagerly; the last pass is returned as a :class:`RestartableMerger` so
    the caller can pipeline its output into index construction ("the final
    merge phase of sort can be performed as keys are being inserted into
    the index", section 2.2.2).  Returns None when there are no runs.
    """
    if not runs:
        return None
    current = list(runs)
    while len(current) > fanin:
        current = merge_pass(store, current, fanin)
    output = store.new_run()
    return RestartableMerger(current, output)
