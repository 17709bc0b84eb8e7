"""Streaming histograms: bucketing, nearest-rank accuracy versus the
exact analyzer percentiles, merge/snapshot/delta, registry wiring, and
the acceptance cross-check — the online histogram and the offline trace
analyzer agree within one bucket width on the same op population."""

import random

import pytest

from repro.metrics import MetricsRegistry, StreamingHistogram, log2_bounds
from repro.obs import enable_tracing
from repro.slo import latency_report
from repro.slo.analyzer import percentile
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

QUANTILES = (50.0, 95.0, 99.0)


# -- bucketing ---------------------------------------------------------------


def test_default_bounds_are_log2_spaced():
    bounds = log2_bounds()
    assert bounds[0] == 2.0 ** -10
    assert bounds[-1] == 2.0 ** 30
    for a, b in zip(bounds, bounds[1:]):
        assert b == 2.0 * a


def test_bucket_index_covers_underflow_and_overflow():
    hist = StreamingHistogram(bounds=(1.0, 2.0, 4.0))
    assert hist.bucket_index(-5.0) == 0
    assert hist.bucket_index(0.0) == 0
    assert hist.bucket_index(1.0) == 0    # bounds are inclusive uppers
    assert hist.bucket_index(1.5) == 1
    assert hist.bucket_index(2.0) == 1
    assert hist.bucket_index(3.0) == 2
    assert hist.bucket_index(4.0) == 2
    assert hist.bucket_index(9.0) == 3    # overflow bucket


def test_bounds_must_be_increasing():
    with pytest.raises(ValueError):
        StreamingHistogram(bounds=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        log2_bounds(5, 5)


def test_observe_tracks_count_total_extremes():
    hist = StreamingHistogram()
    for value in (3.0, 0.5, 96.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == 99.5
    assert hist.minimum == 0.5
    assert hist.maximum == 96.0
    assert hist.mean == pytest.approx(99.5 / 3)


# -- quantile accuracy -------------------------------------------------------


def test_quantile_rejects_empty_and_bad_q():
    hist = StreamingHistogram()
    with pytest.raises(ValueError):
        hist.quantile(50.0)
    hist.observe(1.0)
    for bad_q in (0.0, -1.0, 101.0):
        with pytest.raises(ValueError):
            hist.quantile(bad_q)


def test_quantile_is_exact_for_single_valued_population():
    hist = StreamingHistogram()
    for _ in range(100):
        hist.observe(50.0)
    # The bucket upper bound (64) is clamped to the observed max.
    for q in QUANTILES:
        assert hist.quantile(q) == 50.0


def test_quantile_within_one_bucket_width_of_nearest_rank():
    rng = random.Random(7)
    populations = [
        [rng.uniform(0.1, 500.0) for _ in range(n)]
        for n in (1, 2, 17, 400)
    ] + [[rng.lognormvariate(2.0, 1.5) for _ in range(1000)]]
    for sample in populations:
        hist = StreamingHistogram()
        for value in sample:
            hist.observe(value)
        for q in QUANTILES + (1.0, 100.0):
            exact = percentile(sample, q)
            estimate = hist.quantile(q)
            assert abs(estimate - exact) <= hist.bucket_width(exact), \
                f"q={q}: estimate {estimate} vs exact {exact}"
            assert estimate >= exact  # upper-bound estimator


# -- merge / snapshot / delta ------------------------------------------------


def test_merge_equals_observing_the_concatenation():
    rng = random.Random(11)
    left_values = [rng.uniform(0.0, 100.0) for _ in range(50)]
    right_values = [rng.uniform(50.0, 5000.0) for _ in range(75)]
    left, right, both = (StreamingHistogram() for _ in range(3))
    for value in left_values:
        left.observe(value)
        both.observe(value)
    for value in right_values:
        right.observe(value)
        both.observe(value)
    merged = left.merge(right)
    assert merged is left
    assert merged.counts == both.counts
    assert merged.count == both.count
    assert merged.total == pytest.approx(both.total)
    assert merged.minimum == both.minimum
    assert merged.maximum == both.maximum
    for q in QUANTILES:
        assert merged.quantile(q) == both.quantile(q)


def test_merge_and_delta_reject_mismatched_bounds():
    default = StreamingHistogram()
    custom = StreamingHistogram(bounds=(1.0, 10.0))
    with pytest.raises(ValueError):
        default.merge(custom)
    with pytest.raises(ValueError):
        default.delta(custom)


def test_snapshot_is_sparse_and_explicit_when_empty():
    assert StreamingHistogram().snapshot() == {"count": 0}
    hist = StreamingHistogram()
    hist.observe(3.0)
    hist.observe(3.5)
    snap = hist.snapshot()
    assert snap["count"] == 2
    assert snap["minimum"] == 3.0 and snap["maximum"] == 3.5
    assert snap["p50"] == 3.5  # bucket (2, 4] upper bound clamped to max
    assert sum(snap["buckets"].values()) == 2
    assert list(snap) == sorted(snap)  # schema-stable sorted keys


def test_delta_isolates_the_window():
    hist = StreamingHistogram()
    hist.observe(1.0)
    before = hist.copy()
    hist.observe(100.0)
    hist.observe(200.0)
    window = hist.delta(before)
    assert window.count == 2
    assert window.total == pytest.approx(300.0)
    assert window.quantile(50.0) >= 100.0  # the old 1.0 is not in the window
    empty = hist.delta(hist.copy())
    assert empty.count == 0
    assert empty.snapshot() == {"count": 0}


# -- registry wiring ---------------------------------------------------------


def test_registry_observe_hist_creates_and_accumulates():
    metrics = MetricsRegistry()
    assert metrics.hist("never.observed").count == 0
    metrics.observe_hist("lat", 5.0)
    metrics.observe_hist("lat", 7.0)
    assert metrics.hist("lat").count == 2
    snaps = metrics.snapshot_hists()
    assert list(snaps) == ["lat"]
    assert snaps["lat"]["count"] == 2
    metrics.reset()
    assert metrics.histograms == {}


# -- acceptance: online histogram vs offline analyzer ------------------------


def test_online_hist_matches_analyzer_percentiles_on_one_trace():
    """Run ONE open-loop workload with tracing; the live histogram the
    driver feeds and the post-hoc ``latency_report`` extracted from the
    trace must agree on p50/p95/p99 within one bucket width."""
    system = System(SystemConfig(page_capacity=8, buffer_frames=16,
                                 disk_channels=1), seed=6)
    table = system.create_table("t", ["k", "p"])
    recorder = enable_tracing(system)
    spec = OpenLoopSpec(operations=150, rate=2.0, range_weight=0.0,
                        key_space=400)
    driver = OpenLoopDriver(system, table, spec, seed=6)
    system.spawn(driver.preload(100), name="preload")
    system.run()
    driver.spawn()
    system.run()

    report = latency_report(recorder.events)  # committed ops only
    hist = system.metrics.hist("openloop.latency")
    assert hist.count == report["ops"] > 50
    for q in QUANTILES:
        exact = report[f"p{q:g}"]
        estimate = hist.quantile(q)
        assert abs(estimate - exact) <= hist.bucket_width(exact), \
            f"p{q:g}: online {estimate} vs analyzer {exact}"
    # The per-op breakdown partitions the same population.
    per_op = [h for name, h in system.metrics.histograms.items()
              if name.startswith("openloop.latency.")]
    assert sum(h.count for h in per_op) == hist.count
