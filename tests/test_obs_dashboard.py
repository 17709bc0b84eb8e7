"""Tests for the ASCII dashboard CLI and the Prometheus exporter.

* widget units -- sparklines keep spikes through downsampling, progress
  bars pin partial fractions strictly inside the brackets;
* trace mode -- a tracked + alerted build renders all sections, and
  ``--check-clean`` turns the frame into a CI verdict (fails on firing
  alerts, fails on a progress-less trace, passes on a clean one);
* span fallback -- traces recorded *without* progress tracking (the CI
  sweep artifact) still yield progress rows from the span forest;
* live mode -- frames straight from a running system's tracker,
  monitor, and histograms, plus the ``--live-demo`` scenario;
* the exporter -- deterministic Prometheus exposition text with
  cumulative histogram buckets.
"""

import io

from repro import (
    BuildOptions,
    IndexSpec,
    System,
    SystemConfig,
    WorkloadDriver,
    WorkloadSpec,
)
from repro.core import get_builder
from repro.obs import AlertRule, Phase, Trace, enable_health, \
    enable_progress, enable_tracing
from repro.obs.dashboard import (
    _live_demo,
    main as dashboard_main,
    progress_bar,
    progress_rows,
    render_dashboard,
    render_live,
    sparkline,
)
from repro.obs.export import export_prometheus


# -- widgets -----------------------------------------------------------------


def test_sparkline_preserves_spikes_through_downsampling():
    flat = [1.0] * 200
    flat[137] = 100.0
    line = sparkline(flat, width=20)
    assert len(line) == 20
    assert "@" in line  # the spike survived bucket-max downsampling
    assert sparkline([], width=8) == " " * 8
    assert set(sparkline([5.0, 5.0], width=2)) <= {"@"}


def test_progress_bar_pins_partial_fractions_inside_the_brackets():
    assert progress_bar(0.0, 10) == "[" + " " * 10 + "]"
    assert progress_bar(1.0, 10) == "[" + "=" * 10 + "]"
    nearly_zero = progress_bar(0.001, 10)
    assert ">" in nearly_zero  # started != not started
    nearly_done = progress_bar(0.999, 10)
    assert ">" in nearly_done  # almost != done
    assert len(nearly_done) == 12


# -- a tracked, alerted build to render --------------------------------------


def _tracked_alerted_trace(spike: bool):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    recorder = enable_tracing(system)
    enable_progress(system)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table, WorkloadSpec(operations=20, workers=2,
                                    think_time=0.5), seed=3)
    proc = system.spawn(driver.preload(120), name="preload")
    system.run()
    assert proc.error is None
    # armed after the preload run so its sampler lives through the build
    monitor = enable_health(
        system,
        rules=[AlertRule("apply-lag", "cluster.apply_lag", op=">",
                         threshold=256.0, for_ticks=1, clear_ticks=100)],
        sample_every=10.0)
    if spike:
        monitor.add_probe("cluster.apply_lag", lambda: 1000.0)
    builder = get_builder("sf")(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_keys=64))
    build_proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert build_proc.error is None
    return recorder


def test_trace_mode_renders_all_sections(tmp_path, capsys):
    recorder = _tracked_alerted_trace(spike=True)
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    assert dashboard_main([str(path), "--width", "80"]) == 0
    out = capsys.readouterr().out
    assert "cluster dashboard @ t=" in out
    assert "build progress" in out
    assert "idx" in out and "100.0%" in out and "done" in out
    assert "alerts" in out and "apply-lag" in out and "FIRING" in out
    assert "gauges" in out and "build.progress[idx]" in out


def test_check_clean_fails_on_firing_alert(tmp_path, capsys):
    recorder = _tracked_alerted_trace(spike=True)
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    assert dashboard_main([str(path), "--check-clean"]) == 1
    assert "check-clean: FAIL (firing: apply-lag)" in capsys.readouterr().out


def test_check_clean_passes_on_a_clean_tracked_trace(tmp_path, capsys):
    recorder = _tracked_alerted_trace(spike=False)
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    assert dashboard_main([str(path), "--check-clean"]) == 0
    out = capsys.readouterr().out
    assert "check-clean: OK" in out


def test_check_clean_fails_on_a_trace_with_no_builds(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"kind":"instant","name":"x","t":1.0,"epoch":0,'
                    '"seq":0,"attrs":{}}\n')
    assert dashboard_main([str(path), "--check-clean"]) == 1
    assert "no build progress" in capsys.readouterr().out


# -- span fallback (traces without progress tracking) ------------------------


def test_progress_rows_fall_back_to_spans_without_tracking():
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    recorder = enable_tracing(system)  # tracing on, tracking off
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table, WorkloadSpec(operations=0, workers=1), seed=3)
    proc = system.spawn(driver.preload(120), name="preload")
    system.run()
    assert proc.error is None
    builder = get_builder("sf")(system, table, IndexSpec.of("idx", ["k"]))
    build_proc = system.spawn(builder.run(), name="builder")
    system.run()
    assert build_proc.error is None
    rows = progress_rows(Trace.loads(recorder.to_jsonl()))
    assert len(rows) == 1
    assert rows[0]["build"] == "idx"
    assert rows[0]["fraction"] == 1.0
    assert rows[0]["verdict"] == "done"


def test_progress_rows_flag_crash_cut_builds_as_interrupted():
    events = [
        {"kind": "span_begin", "name": "build", "t": 0.0, "epoch": 0,
         "seq": 0, "span": 1, "parent": None,
         "attrs": {"mode": "sf", "indexes": ["idx"]}},
        {"kind": "span_begin", "name": "scan", "t": 1.0, "epoch": 0,
         "seq": 1, "span": 2, "parent": 1, "attrs": {}},
        {"kind": "span_end", "name": "scan", "t": 5.0, "epoch": 0,
         "seq": 2, "span": 2, "attrs": {}},
        {"kind": "span_begin", "name": "drain", "t": 5.0, "epoch": 0,
         "seq": 3, "span": 3, "parent": 1, "attrs": {}},
        {"kind": "instant", "name": "system.crash", "t": 8.0, "epoch": 0,
         "seq": 4, "attrs": {}},
    ]
    rows = progress_rows(events)
    assert rows == [{"build": "idx", "fraction": 0.5, "phase": "sf",
                     "verdict": "interrupted", "eta": None,
                     "approx": True}]
    frame = render_dashboard(events)
    assert "~ 50.0%" in frame and "interrupted" in frame


# -- live mode ---------------------------------------------------------------


def test_render_live_reads_tracker_monitor_and_histograms():
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    enable_tracing(system)
    tracker = enable_progress(system)
    monitor = enable_health(
        system, rules=[AlertRule("lag", "cluster.apply_lag", op=">",
                                 threshold=10.0, for_ticks=1)],
        sample_every=10.0, spawn=False)
    monitor.add_probe("cluster.apply_lag", lambda: 50.0)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table, WorkloadSpec(operations=0, workers=1), seed=3)
    proc = system.spawn(driver.preload(120), name="preload")
    system.run()
    assert proc.error is None
    builder = get_builder("sf")(system, table, IndexSpec.of("idx", ["k"]))
    build_proc = system.spawn(builder.run(), name="builder")
    system.run()
    assert build_proc.error is None
    system.metrics.observe_hist("openloop.latency", 2.0)
    monitor.tick()
    frame = render_live(system, tracker, monitor)
    assert "live dashboard @ t=" in frame
    assert "idx" in frame and "100.0%" in frame
    assert "lag" in frame and "FIRING" in frame
    assert "latency histograms" in frame
    assert "openloop.latency" in frame


def test_live_demo_renders_frames_and_finishes():
    out = io.StringIO()
    assert _live_demo(76, out) == 0
    text = out.getvalue()
    assert text.count("live dashboard @ t=") >= 2  # several frames
    assert "100.0%" in text  # the final frame shows the finished build
    assert "done" in text


# -- prometheus export -------------------------------------------------------


def test_export_prometheus_shape_and_determinism():
    system = System(SystemConfig(), seed=1)
    tracker = enable_progress(system)
    monitor = enable_health(
        system, rules=[AlertRule("lag", "m", threshold=1.0)],
        spawn=False)
    system.metrics.incr("build.pages_scanned", 7)
    system.metrics.observe("build.quiesce_wait", 1.5)
    system.metrics.observe("build.quiesce_wait", 2.5)
    for value in (1.0, 2.0, 300.0):
        system.metrics.observe_hist("openloop.latency", value)

    tracker.track("idx", "sf", [Phase("scan", 1.0)], system.sim,
                  system.metrics.tracer).advance("scan", 5, 10)
    text = export_prometheus(system, monitor)
    assert text == export_prometheus(system, monitor)  # deterministic
    lines = text.splitlines()
    assert "# TYPE repro_build_pages_scanned_total counter" in lines
    assert "repro_build_pages_scanned_total 7" in lines
    assert "repro_build_quiesce_wait_count 2" in lines
    assert "repro_build_quiesce_wait_sum 4" in lines
    assert "# TYPE repro_openloop_latency histogram" in lines
    assert 'repro_openloop_latency_bucket{le="+Inf"} 3' in lines
    assert "repro_openloop_latency_count 3" in lines
    # cumulative bucket counts are non-decreasing
    buckets = [int(line.rsplit(" ", 1)[1]) for line in lines
               if line.startswith("repro_openloop_latency_bucket")]
    assert buckets == sorted(buckets)
    assert any(line.startswith('repro_build_progress{build="idx"')
               for line in lines)
    assert 'repro_alert_firing{alert="lag"} 0' in lines
