"""Restartable external sort (section 5 of the paper)."""

from repro.sort.merge import (
    RestartableMerger,
    final_merger,
    merge_pass,
    merge_to_single,
)
from repro.sort.runs import RunStore, SortRun, run_sequence
from repro.sort.sorter import RunFormation

__all__ = [
    "RestartableMerger",
    "RunFormation",
    "RunStore",
    "SortRun",
    "final_merger",
    "merge_pass",
    "merge_to_single",
    "run_sequence",
]
