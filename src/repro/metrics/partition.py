"""Per-partition metric aggregation for the parallel build.

The PSF builder publishes one counter/series per shard using the naming
convention ``<prefix>.<shard>`` (``psf.pages_scanned.0``,
``psf.shard_scan_time.3``, ...).  These helpers gather such families back
into vectors and summarize their *skew* -- the max/mean ratio that tells
how unevenly the range partitioning split the work (1.0 = perfectly
balanced; the slowest shard gates the barrier, so simulated phase time
tracks the max).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.registry import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.registry import MetricsRegistry


def partition_values(metrics: "MetricsRegistry", prefix: str,
                     shards: int) -> list[float]:
    """The ``<prefix>.<shard>`` family as a dense vector.

    Each slot takes the counter value if one exists, else the series sum
    (a shard that never reported contributes 0.0).
    """
    values = []
    for shard in range(shards):
        name = f"{prefix}.{shard}"
        if name in metrics.counters:
            values.append(float(metrics.counters[name]))
        else:
            values.append(metrics.stat(name).total)
    return values


def skew_summary(values: list[float]) -> dict:
    """Balance summary of one per-shard vector.

    ``skew`` is max/mean (1.0 = balanced); 0.0 when the vector is empty
    or all-zero so callers can emit it unconditionally.
    """
    if not values:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "skew": 0.0}
    mean = ordered_sum(values) / len(values)
    summary = {"min": min(values), "max": max(values), "mean": mean}
    summary["skew"] = (max(values) / mean) if mean > 0 else 0.0
    return summary


def partition_skew(metrics: "MetricsRegistry", prefix: str,
                   shards: int) -> dict:
    """Skew summary of the ``<prefix>.<shard>`` family, with the vector."""
    values = partition_values(metrics, prefix, shards)
    summary = skew_summary(values)
    summary["per_shard"] = values
    return summary
