"""Per-partition scan frontier for the partitioned parallel SF build.

Serial SF keeps a single ``Current-RID``: a record's maintenance is
routed to the side-file iff ``Target-RID < Current-RID`` (section 3.1),
because everything behind the scan position has already been extracted.

The shard scan (:class:`repro.core.sources.ShardScan`) range-partitions
the table's page space into P shards, one scan worker each, so there is
no single scan position.  The visibility test generalizes to a *frontier
vector*: one Current-RID per shard, advanced by that shard's worker under
the data-page latch.  A record is "scanned" iff it is behind the frontier
of the shard *owning its page* -- each record belongs to exactly one
shard, so the paper's correctness argument (an update is either extracted
by the scan or routed to the side-file, never both, never neither)
carries over shard by shard.

Pages appended beyond the partitioned range (file extensions during the
build) belong to the last shard, which chases the end of file exactly
like serial SF's scan does (section 3.2.2); once it finishes, its
frontier is infinity and later extensions still reach the side-file.

With P = 1 the vector degenerates to the paper's single Current-RID.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.storage.rid import INFINITY_RID, RID, format_rid, rid_page


@dataclass(frozen=True)
class Partition:
    """One shard's contiguous page range ``[start, end)``.

    ``chases_eof`` marks the last shard, whose scan limit is the live end
    of file rather than the range noted at build start.
    """

    index: int
    start: int
    end: int
    chases_eof: bool = False

    @property
    def pages(self) -> int:
        return self.end - self.start


def partition_pages(page_count: int, shards: int) -> list[Partition]:
    """Split ``[0, page_count)`` into ``shards`` near-equal ranges.

    Every shard is non-empty when ``page_count >= shards``; an
    over-partitioned tiny table degenerates to fewer useful shards (the
    empty tail shards scan nothing and arrive at the barrier at once).
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    base, extra = divmod(max(page_count, 0), shards)
    partitions: list[Partition] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        end = start + size
        partitions.append(Partition(index=index, start=start, end=end,
                                    chases_eof=(index == shards - 1)))
        start = end
    return partitions


class ScanFrontier:
    """The frontier vector: one Current-RID per shard.

    All mutations are synchronous (no yields), so each advance is atomic
    with the caller's visibility decision, preserving the latch protocol
    that makes ``Target-RID != Current-RID`` impossible (section 3.1).
    """

    __slots__ = ("partitions", "current", "_ends")

    def __init__(self, partitions: Sequence[Partition]) -> None:
        if not partitions:
            raise ValueError("frontier needs at least one partition")
        self.partitions = list(partitions)
        #: per-shard Current-RID; starts at the shard's first page
        self.current: list[int] = [RID(p.start, 0) for p in self.partitions]
        #: exclusive page-range ends of all shards but the last, for the
        #: binary-searched ownership test (partition ranges never change
        #: after construction; only frontiers move)
        self._ends: list[int] = [p.end for p in self.partitions[:-1]]

    # -- the generalized visibility test -----------------------------------

    def shard_of(self, page_no: int) -> int:
        """The shard owning ``page_no`` (extensions go to the last shard).

        Runs on *every* visibility test concurrent updaters perform, so
        it binary-searches the precomputed range ends instead of scanning
        them: ``bisect_right`` returns the first shard whose end exceeds
        ``page_no`` -- identical to the linear answer, including for
        empty shards (duplicate ends) and pages past the partitioned
        range (which fall through to the last, EOF-chasing shard).
        """
        return bisect_right(self._ends, page_no)

    def scanned(self, rid: int) -> bool:
        """Generalized ``Target-RID < Current-RID``: behind the owning
        shard's frontier."""
        return rid < self.current[self.shard_of(rid_page(rid))]

    # -- worker-side maintenance -------------------------------------------

    def advance(self, shard: int, rid: int) -> None:
        """Advance one shard's frontier (called under the page latch)."""
        if rid < self.current[shard]:
            raise ValueError(
                f"shard {shard} frontier moving backwards: "
                f"{format_rid(rid)} < {format_rid(self.current[shard])}")
        self.current[shard] = rid

    def finish(self, shard: int) -> None:
        """Shard scan complete: everything it owns is now visible."""
        self.current[shard] = INFINITY_RID

    def finish_all(self) -> None:
        for shard in range(len(self.current)):
            self.current[shard] = INFINITY_RID

    @property
    def done(self) -> bool:
        return all(rid == INFINITY_RID for rid in self.current)

    # -- checkpoint round-trip ---------------------------------------------

    def to_manifest(self) -> dict:
        return {
            "partitions": [(p.start, p.end) for p in self.partitions],
            "current": list(self.current),
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ScanFrontier":
        ranges = manifest["partitions"]
        partitions = [Partition(index=i, start=start, end=end,
                                chases_eof=(i == len(ranges) - 1))
                      for i, (start, end) in enumerate(ranges)]
        frontier = cls(partitions)
        frontier.current = list(manifest["current"])
        return frontier

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        spans = ", ".join(
            f"[{p.start},{p.end}){'+' if p.chases_eof else ''}"
            f"@{'inf' if rid == INFINITY_RID else rid_page(rid)}"
            for p, rid in zip(self.partitions, self.current))
        return f"<ScanFrontier {spans}>"
