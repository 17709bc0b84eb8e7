"""Metrics collection for the simulated DBMS."""

from repro.metrics.partition import (
    partition_skew,
    partition_values,
    skew_summary,
)
from repro.metrics.registry import MetricsRegistry, SeriesStat, ordered_sum

__all__ = [
    "MetricsRegistry",
    "SeriesStat",
    "ordered_sum",
    "partition_skew",
    "partition_values",
    "skew_summary",
]
