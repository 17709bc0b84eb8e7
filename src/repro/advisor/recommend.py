"""Greedy workload-aware index selection under a storage budget.

Candidate generation and selection follow the classic greedy what-if
loop (and its modern Extend-style refinement): candidates are every
prefix of every template's filter columns up to ``max_index_width``, and
each round picks the candidate with the best *benefit per storage page*
-- cost reduction divided by estimated index size -- until the budget is
exhausted, the improvement falls below ``min_cost_improvement``, or
``max_indexes`` picks were made.  Benefit-per-page (not raw benefit)
is what makes the knapsack-shaped budget constraint behave: a slightly
less useful but much smaller index can beat a wide composite.

Everything is deterministic: candidates are generated in sorted order
and ties break on (ratio, benefit, name), so the same workload always
yields the same recommendation -- the property the golden example and
the bench suite rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.advisor.model import (
    CandidateIndex,
    QueryTemplate,
    TableStats,
    WhatIfCostModel,
)
from repro.core import IndexSpec
from repro.metrics.registry import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.openloop import OpenLoopSpec


@dataclass(frozen=True)
class AdvisorConfig:
    """Constraints on one recommendation run."""

    #: total estimated pages the picked indexes may occupy
    storage_budget_pages: int
    #: widest composite index considered
    max_index_width: int = 2
    #: a pick must shrink the workload cost by at least this factor
    #: (old / new); 1.0 accepts any strict improvement
    min_cost_improvement: float = 1.003
    #: cap on the number of picks (None = budget-limited only)
    max_indexes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.storage_budget_pages < 0:
            raise ValueError("storage budget must be >= 0")
        if self.max_index_width < 1:
            raise ValueError("max_index_width must be >= 1")
        if self.min_cost_improvement < 1.0:
            raise ValueError("min_cost_improvement must be >= 1.0")


@dataclass(frozen=True)
class AdvisorStep:
    """One accepted greedy pick, for explainability."""

    candidate: CandidateIndex
    size_pages: int
    cost_before: float
    cost_after: float

    @property
    def benefit(self) -> float:
        return self.cost_before - self.cost_after


@dataclass
class AdvisorReport:
    """The recommendation: picks, their order, and the cost trajectory."""

    config: AdvisorConfig
    stats: TableStats
    initial_cost: float
    steps: list = field(default_factory=list)

    @property
    def picks(self) -> list:
        return [step.candidate for step in self.steps]

    @property
    def final_cost(self) -> float:
        return self.steps[-1].cost_after if self.steps \
            else self.initial_cost

    @property
    def storage_used(self) -> int:
        return sum(step.size_pages for step in self.steps)

    def specs(self) -> list:
        """The picks as build-ready :class:`~repro.core.IndexSpec`."""
        return [IndexSpec.of(pick.name, list(pick.key_columns))
                for pick in self.picks]

    def to_text(self) -> str:
        lines = [f"advisor: budget={self.config.storage_budget_pages} "
                 f"pages, max_width={self.config.max_index_width}",
                 f"  workload cost without indexes: "
                 f"{self.initial_cost:.1f}"]
        for step in self.steps:
            lines.append(
                f"  + {step.candidate.name} "
                f"on {','.join(step.candidate.key_columns)} "
                f"({step.size_pages} pages): cost "
                f"{step.cost_before:.1f} -> {step.cost_after:.1f}")
        lines.append(f"  final cost {self.final_cost:.1f} using "
                     f"{self.storage_used} pages")
        return "\n".join(lines)


def candidate_name(columns: Sequence[str]) -> str:
    return "adv_" + "_".join(columns)


def generate_candidates(templates: Sequence[QueryTemplate],
                        max_width: int) -> list:
    """Every prefix of every template's filter columns, deduplicated.

    Sorted by (width, columns) so generation order -- and therefore
    tie-breaking -- is independent of template order.
    """
    seen: set[tuple[str, ...]] = set()
    for template in templates:
        for width in range(1, min(max_width, len(template.columns)) + 1):
            seen.add(template.columns[:width])
    return [CandidateIndex(candidate_name(columns), columns)
            for columns in sorted(seen, key=lambda c: (len(c), c))]


def recommend(templates: Sequence[QueryTemplate], stats: TableStats,
              config: AdvisorConfig) -> AdvisorReport:
    """Greedy benefit-per-page selection under the config's constraints."""
    model = WhatIfCostModel(stats)
    templates = [t for t in templates if t.weight > 0]
    report = AdvisorReport(config=config, stats=stats,
                           initial_cost=model.workload_cost(templates, []))
    if not templates:
        return report
    remaining = list(generate_candidates(templates,
                                         config.max_index_width))
    picked: list[CandidateIndex] = []
    budget = config.storage_budget_pages
    while remaining:
        if config.max_indexes is not None \
                and len(picked) >= config.max_indexes:
            break
        current = model.workload_cost(templates, picked)
        best = None  # (ratio, benefit, candidate, size, cost_after)
        for candidate in remaining:
            size = model.size_pages(candidate)
            if size > budget:
                continue
            cost = model.workload_cost(templates, picked + [candidate])
            benefit = current - cost
            if benefit <= 0 or current < cost * config.min_cost_improvement:
                continue
            ratio = benefit / size
            key = (ratio, benefit, candidate.name)
            if best is None or key > (best[0], best[1], best[2].name):
                best = (ratio, benefit, candidate, size, cost)
        if best is None:
            break
        _ratio, _benefit, candidate, size, cost = best
        picked.append(candidate)
        remaining.remove(candidate)
        budget -= size
        report.steps.append(AdvisorStep(
            candidate=candidate, size_pages=size,
            cost_before=current, cost_after=cost))
    return report


def templates_from_spec(olspec: "OpenLoopSpec") -> list:
    """Derive query templates from an open-loop traffic spec.

    Each weighted range column becomes a single-column range template:
    its selectivity is the range span over the key space, its weight the
    spec's overall range weight times the column's share of the range
    mix.  This is the advisor's input when the workload is described by
    the same spec that will drive the live traffic.
    """
    if not olspec.range_columns:
        return []
    total = ordered_sum(weight for _name, weight in olspec.range_columns)
    if total <= 0:
        return []
    selectivity = min(1.0, max(olspec.range_span, 1)
                      / max(olspec.key_space, 1))
    return [QueryTemplate(columns=(name,), selectivity=selectivity,
                          weight=olspec.range_weight * weight / total)
            for name, weight in olspec.range_columns]
