"""E19 -- Drain catch-up window vs drain batching (section 3.2.5).

Claim: the vulnerable interval at the end of an SF build -- the window
between the bulk load finishing and the atomic ``Index_Build`` flip,
during which IB races the appenders to the end of the side-file -- is
set by how fast the drain applies entries.  Batching consecutive
side-file entries into one tree traversal (``BuildOptions.drain_batch``)
shrinks that window without changing the result.

Measured from the build's structured trace: the ``drain`` span duration
and the side-file backlog high-water mark come straight out of the
:class:`repro.obs.TraceRecorder` events, exercising the same
trace-derived breakdown the perf suite records.
"""

from repro.bench import print_table, run_build_experiment
from repro.bench.harness import bench_config
from repro.core import BuildOptions
from repro.obs import TraceRecorder, phase_durations


def run_e19():
    rows = []
    for drain_batch in (1, 4, 16, 64):
        tracer = TraceRecorder()
        # Charge drain descents like query descents (an ablation of the
        # default calibration, where they ride the per-key CPU charge):
        # this is the regime in which batching can shrink the window.
        result = run_build_experiment(
            "sf", rows=1_000, operations=120, workers=3, seed=119,
            think_time=0.5, key_space=2_000,
            config=bench_config(drain_visit_cost=0.1),
            options=BuildOptions(drain_batch=drain_batch,
                                 sort_sidefile=True),
            tracer=tracer)
        phases = phase_durations(tracer.events)
        backlog_peak = max(
            (event["value"] for event in tracer.events
             if event["kind"] == "gauge"
             and event["name"] == "sidefile.backlog"), default=0)
        rows.append([
            drain_batch,
            round(phases["drain:idx"], 1),
            round(phases["build"], 1),
            backlog_peak,
            result.counter("build.sidefile_drained"),
            result.counter("index.traversals"),
        ])
    return rows


def test_e19_drain_window_vs_batching():
    rows = run_e19()
    print_table(
        "E19: drain catch-up window vs drain_batch (section 3.2.5)",
        ["drain_batch", "drain window", "whole build",
         "backlog high-water", "drained", "tree traversals"],
        rows,
        note="drain descents charged at drain_visit_cost=0.1; the window "
             "(drain-span duration, from the build trace) shrinks as "
             "batching amortizes traversals; every run drains the same "
             "entries and audits clean.",
    )
    windows = [row[1] for row in rows]
    assert windows == sorted(windows, reverse=True), \
        f"drain window should shrink with batching: {windows}"
    drained = {row[4] for row in rows}
    assert len(drained) <= 2, \
        f"drained counts diverged unexpectedly: {drained}"
