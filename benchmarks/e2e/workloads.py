"""The four workloads.  Sizes are fixed here, for this machine, and are
not scaled at run time (``--smoke`` swaps in a tiny table for tests).

Every workload uses page/leaf/branch capacity 16, ``sort_workspace=256``,
``merge_fanin=8`` and default ``BuildOptions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from load import BLOCK_OPS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: builder mode handed to ``repro.core.get_builder``
    builder: str
    rows: int
    buffer_frames: int
    disk_channels: Optional[int]
    #: indexes built back to back: ``(name, key columns)``
    indexes: tuple
    #: traffic as ``(operations, rate per simulated unit)`` segments
    segments: tuple
    #: simulated units per timed slice
    slice_width: float
    #: foreground latency limit, simulated units
    slo_limit: float
    #: power failure this long after the build starts (simulated units)
    crash_after: Optional[float] = None
    #: ``utility_state["phase"]`` the crash must land in
    crash_phase: Optional[str] = None

    @property
    def slices(self) -> int:
        """Timed slices per round: the grid reaches just past the last
        operation's due time; one more slice drains what is left."""
        span = sum(count / rate for count, rate in self.segments)
        return math.ceil(span / self.slice_width)


WORKLOADS = (
    Workload(
        name="bulk_sf",
        why="table fits the buffer pool, trickle traffic: scan, sort "
            "and bulk load do the work; side-file, locks and I/O almost "
            "none",
        builder="sf", rows=30_000, buffer_frames=8192, disk_channels=None,
        indexes=(("idx_k", ("k",)), ("idx_a", ("a", "k"))),
        segments=((1_600, 0.2), (1_600, 2.0)),
        slice_width=100.0, slo_limit=3.5),
    Workload(
        name="traffic_sf",
        why="table five times the buffer pool under steady writes: "
            "locks, WAL, heap, side-file drain and buffer misses do the "
            "work; the sort little",
        builder="sf", rows=30_000, buffer_frames=384, disk_channels=8,
        indexes=(("idx_k", ("k",)),),
        segments=((5_600, 0.22), (3_200, 0.3)),
        slice_width=200.0, slo_limit=50.0),
    Workload(
        name="traffic_nsf",
        why="same inputs as traffic_sf, NSF builder: IB inserts into "
            "the tree transactions update, no side-file; shows a cost "
            "moved from SF to the shared B+-tree or WAL",
        builder="nsf", rows=30_000, buffer_frames=384, disk_channels=8,
        indexes=(("idx_k", ("k",)),),
        segments=((5_600, 0.22), (3_200, 0.3)),
        slice_width=200.0, slo_limit=50.0),
    Workload(
        name="restart_sf",
        why="power failure mid bulk load, restart, resumed build: "
            "recovery, WAL redo and sort/load checkpoint restore do "
            "work nothing else exercises",
        builder="sf", rows=30_000, buffer_frames=8192, disk_channels=None,
        indexes=(("idx_k", ("k",)),),
        segments=((1_600, 0.3), (3_200, 2.0)),
        slice_width=100.0, slo_limit=2.0,
        crash_after=2_250.0, crash_phase="load-start"),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def smoke(workload: Workload) -> Workload:
    """The same workload over a 2 000-row table, for tests."""
    scale = 2_000 / workload.rows
    return replace(
        workload, rows=2_000,
        segments=tuple((BLOCK_OPS, rate)
                       for _count, rate in workload.segments),
        crash_after=None if workload.crash_after is None
        else workload.crash_after * scale)
