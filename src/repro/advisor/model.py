"""What-if cost model for the workload-aware index advisor.

The advisor never builds anything to evaluate it: candidate indexes are
costed *hypothetically* against a query workload, the way commercial
what-if advisors piggyback on the optimizer's cost model.  The model
here is deliberately small but honours the two effects that make index
selection non-trivial:

* **prefix matching** -- an index on ``(a, b)`` serves a query filtering
  on ``a`` alone (partially) and on ``(a, b)`` (fully), but is useless
  for a filter on ``b``;
* **diminishing selectivity** -- matching only a prefix of the query's
  filter columns leaves a residual fraction of entries to post-filter,
  so a partial match costs more than a full one but still beats a heap
  scan.

Every number is in simulated page reads, the unit the rest of the repo
charges I/O in, so advisor estimates are comparable with measured scan
counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, TYPE_CHECKING

from repro.metrics.registry import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System


@dataclass(frozen=True)
class TableStats:
    """The statistics the cost model needs about one table."""

    rows: int
    pages: int
    #: entries per bulk-loaded leaf for a single-column key (wider keys
    #: divide this; mirrors ``SystemConfig.leaf_capacity``)
    leaf_capacity: int = 8
    #: child pointers per branch page (tree fan-out)
    branch_capacity: int = 8

    @classmethod
    def from_table(cls, system: "System", table: "Table") -> "TableStats":
        rows = sum(1 for _ in table.audit_records())
        return cls(rows=rows, pages=table.page_count,
                   leaf_capacity=system.config.leaf_capacity,
                   branch_capacity=system.config.branch_capacity)


@dataclass(frozen=True)
class QueryTemplate:
    """One query shape in the workload: a conjunctive filter.

    ``columns`` are the filtered columns in priority order (the leading
    ones are the most selective); ``selectivity`` is the fraction of
    rows the whole filter keeps; ``weight`` is the template's share of
    the workload (arbitrary units -- only ratios matter).
    """

    columns: tuple[str, ...]
    selectivity: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a query template filters at least 1 column")
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError(
                f"selectivity must be in (0, 1], got {self.selectivity}")
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")


@dataclass(frozen=True)
class CandidateIndex:
    """A hypothetical index the advisor can recommend."""

    name: str
    key_columns: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.key_columns)


class WhatIfCostModel:
    """Page-read estimates for queries with and without candidates."""

    def __init__(self, stats: TableStats) -> None:
        self.stats = stats

    # -- index shape -------------------------------------------------------

    def size_pages(self, candidate: CandidateIndex) -> int:
        """Estimated page footprint of the built index (leaves+branches).

        Wider keys pack fewer entries per leaf, so a composite index
        costs more storage than a single-column one -- the pressure the
        advisor's storage budget pushes back against.
        """
        entries_per_leaf = max(1, self.stats.leaf_capacity
                               // max(1, candidate.width))
        leaves = max(1, math.ceil(self.stats.rows / entries_per_leaf))
        total = leaves
        level = leaves
        while level > 1:
            level = math.ceil(level / self.stats.branch_capacity)
            total += level
        return total

    def height(self, candidate: CandidateIndex) -> int:
        """Root-to-leaf levels of the built index."""
        entries_per_leaf = max(1, self.stats.leaf_capacity
                               // max(1, candidate.width))
        leaves = max(1, math.ceil(self.stats.rows / entries_per_leaf))
        height = 1
        level = leaves
        while level > 1:
            level = math.ceil(level / self.stats.branch_capacity)
            height += 1
        return height

    # -- query costs -------------------------------------------------------

    def scan_cost(self) -> float:
        """A full heap scan: every data page."""
        return float(max(1, self.stats.pages))

    def query_cost(self, template: QueryTemplate,
                   candidate: CandidateIndex) -> float:
        """Cost of answering ``template`` through ``candidate``.

        The match length ``m`` is the longest shared prefix of the
        index's key columns and the template's filter columns.  The
        index narrows the scan by ``selectivity ** (m / len(columns))``
        -- a full match applies the whole filter inside the tree, a
        partial match applies a correspondingly weaker power of it and
        post-filters the rest.  No match at all falls back to the heap
        scan.
        """
        matched = 0
        for key_col, query_col in zip(candidate.key_columns,
                                      template.columns):
            if key_col != query_col:
                break
            matched += 1
        if matched == 0:
            return self.scan_cost()
        effective = template.selectivity \
            ** (matched / len(template.columns))
        entries_per_leaf = max(1, self.stats.leaf_capacity
                               // max(1, candidate.width))
        leaves = max(1, math.ceil(self.stats.rows / entries_per_leaf))
        return self.height(candidate) + effective * leaves

    def best_query_cost(self, template: QueryTemplate,
                        candidates: Sequence[CandidateIndex]) -> float:
        """Cheapest plan: the heap scan or the best matching index."""
        best = self.scan_cost()
        for candidate in candidates:
            best = min(best, self.query_cost(template, candidate))
        return best

    def workload_cost(self, templates: Sequence[QueryTemplate],
                      candidates: Sequence[CandidateIndex]) -> float:
        """Weighted sum of each template's cheapest plan."""
        return ordered_sum(
            template.weight * self.best_query_cost(template, candidates)
            for template in templates)
