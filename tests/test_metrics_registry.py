"""Unit tests for the metrics registry and SeriesStat edge cases."""

from repro.metrics import MetricsRegistry
from repro.metrics.registry import SeriesStat


def test_empty_series_min_max_are_zero():
    stat = SeriesStat()
    assert stat.count == 0
    assert stat.minimum == 0.0
    assert stat.maximum == 0.0
    assert stat.mean == 0.0


def test_series_extremes_track_observations():
    stat = SeriesStat()
    for value in (3.0, -1.5, 7.0):
        stat.observe(value)
    assert stat.count == 3
    assert stat.minimum == -1.5
    assert stat.maximum == 7.0
    assert stat.total == 8.5


def test_series_snapshot_is_serialisable_and_explicit_when_empty():
    # A never-observed series reports explicit emptiness rather than
    # zero-filled extremes that were never actually observed.
    assert SeriesStat().snapshot() == {"count": 0}
    stat = SeriesStat()
    stat.observe(4.0)
    stat.observe(2.0)
    snap = stat.snapshot()
    assert snap["count"] == 2
    assert snap["mean"] == 3.0
    assert snap["minimum"] == 2.0
    assert snap["maximum"] == 4.0


def test_registry_stat_for_unknown_series_is_empty():
    metrics = MetricsRegistry()
    stat = metrics.stat("never.observed")
    assert stat.count == 0
    assert stat.minimum == 0.0
    assert stat.maximum == 0.0


def test_registry_counters_and_deltas():
    metrics = MetricsRegistry()
    metrics.incr("a")
    metrics.incr("a", 2)
    before = metrics.snapshot()
    metrics.incr("a")
    metrics.incr("b", 5)
    assert metrics.get("a") == 4
    assert metrics.delta(before) == {"a": 1, "b": 5}


def test_registry_fault_injector_attachment_point():
    metrics = MetricsRegistry()
    assert metrics.fault_injector is None
    sentinel = object()
    metrics.fault_injector = sentinel
    assert metrics.fault_injector is sentinel


def test_registry_tracer_attachment_point():
    metrics = MetricsRegistry()
    assert metrics.tracer is None
    sentinel = object()
    metrics.tracer = sentinel
    assert metrics.tracer is sentinel


def test_snapshot_stats_serialises_every_series_sorted():
    metrics = MetricsRegistry()
    metrics.observe("b.series", 2.0)
    metrics.observe("b.series", 4.0)
    metrics.observe("a.series", 7.0)
    stats = metrics.snapshot_stats()
    assert list(stats) == ["a.series", "b.series"]
    assert stats["b.series"] == {"count": 2, "total": 6.0, "mean": 3.0,
                                 "minimum": 2.0, "maximum": 4.0}
    assert stats["a.series"]["count"] == 1
    # empty registry -> empty dict, and the result is plain-JSON safe
    assert MetricsRegistry().snapshot_stats() == {}
