"""Benchmark harness (experiment runner, table printer) and the bench
suite runner (``python -m repro.bench``, :mod:`repro.bench.runner`)."""

from repro.bench.harness import (
    BuildRunResult,
    bench_config,
    print_table,
    run_build_experiment,
)

__all__ = [
    "BuildRunResult",
    "bench_config",
    "print_table",
    "run_build_experiment",
]
