"""Workload-aware index advisor (what-if costing + greedy selection).

Given a query workload (:class:`QueryTemplate` list, or derived from an
:class:`~repro.workloads.openloop.OpenLoopSpec` via
:func:`templates_from_spec`) and table statistics, :func:`recommend`
picks the set of indexes with the best estimated benefit per storage
page under an :class:`AdvisorConfig` budget.  The resulting
:meth:`AdvisorReport.specs` feed straight into one shared-scan
multi-index build (``get_builder("multi")``, section 6.2):
the advisor decides *what* to build, the multi-builder amortizes *how*.
"""

from repro.advisor.model import (
    CandidateIndex,
    QueryTemplate,
    TableStats,
    WhatIfCostModel,
)
from repro.advisor.recommend import (
    AdvisorConfig,
    AdvisorReport,
    AdvisorStep,
    candidate_name,
    generate_candidates,
    recommend,
    templates_from_spec,
)

__all__ = [
    "AdvisorConfig",
    "AdvisorReport",
    "AdvisorStep",
    "CandidateIndex",
    "QueryTemplate",
    "TableStats",
    "WhatIfCostModel",
    "candidate_name",
    "generate_candidates",
    "recommend",
    "templates_from_spec",
]
