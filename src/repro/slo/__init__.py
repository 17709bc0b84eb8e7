"""Latency SLOs: percentile analysis of open-loop traces, and the
build-throttle tradeoff suite (``python -m repro.bench slo``).

The paper's availability claim is about *user-visible* latency: an
online build is only "non-quiescing" if foreground transactions keep
meeting their SLO while IB runs.  :mod:`repro.slo.analyzer` turns a
``repro.obs`` trace (the ``op`` spans stamped by
:class:`repro.workloads.OpenLoopDriver`) into p50/p95/p99 latencies and
queue-depth high-water marks; :mod:`repro.slo.tradeoff` sweeps the
:attr:`repro.system.SystemConfig.build_rate_limit` throttle across all
four builders and emits the build-time-vs-p99 tradeoff curve as rows
CI compares exactly with ``BENCH_BASELINE.json``.
"""

from repro.slo.analyzer import (
    latency_report,
    percentile,
    queue_high_water,
)

__all__ = [
    "latency_report",
    "percentile",
    "queue_high_water",
]
