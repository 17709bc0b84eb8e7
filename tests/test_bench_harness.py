"""Tests for the benchmark harness (repro.bench.harness)."""

import pytest

from repro.bench import (
    BuildRunResult,
    bench_config,
    run_build_experiment,
)
from repro.core import BuildOptions, IndexSpec


def test_bench_config_overrides():
    config = bench_config(leaf_capacity=3)
    assert config.leaf_capacity == 3
    assert config.page_capacity == 8  # default kept


def test_run_build_experiment_offline_quiet():
    result = run_build_experiment("offline", rows=60, seed=1)
    assert result.algorithm == "offline"
    assert result.build_time > 0
    assert result.counter("index.inserts.bulk") == 60
    assert result.clustering_at_build_end["idx"] == 1.0
    assert result.driver is None
    assert result.longest_stall() == 0.0


def test_run_build_experiment_with_workload():
    result = run_build_experiment("sf", rows=80, operations=10,
                                  workers=2, seed=2)
    assert result.driver is not None
    assert result.counter("workload.committed") > 0
    assert result.quiesce_wait == 0.0


def test_run_build_experiment_options_flow_through():
    result = run_build_experiment(
        "nsf", rows=80, seed=3,
        options=BuildOptions(ib_batch_keys=2, commit_every_keys=16))
    assert result.counter("build.ib_commits") >= 3


def test_run_build_experiment_multi_spec():
    specs = [IndexSpec.of("a", ["k"]), IndexSpec.of("b", ["p"])]
    result = run_build_experiment("sf", rows=50, seed=4,
                                  index_specs=specs)
    assert set(result.clustering_at_build_end) == {"a", "b"}


def test_unknown_algorithm_rejected():
    with pytest.raises(KeyError):
        run_build_experiment("nope", rows=10)
