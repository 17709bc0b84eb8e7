"""Tests for the structured build tracing subsystem (repro.obs).

Four layers:

* recorder unit behaviour -- span nesting, the epoch/base clock across
  re-binds, byte-stable JSONL export;
* whole-build determinism -- the same seeded build traced twice yields
  byte-identical JSONL, for the serial SF builder and the parallel PSF
  builder (whose shard spans interleave);
* the report renderer -- an SF build crashed mid-drain and recovered
  must render crash-cut spans, the flip, and the restart, matching the
  committed golden byte-for-byte;
* the drain verdict -- the rule over synthetic backlog gauges, and the
  under-throttled drain of EXPERIMENTS.md E24 flagged diverging.
"""

import io
import json
import pathlib

from contextlib import redirect_stdout

from repro import (
    BuildOptions,
    IndexSpec,
    System,
    SystemConfig,
    WorkloadDriver,
    WorkloadSpec,
    audit_index,
    build_pre_undo,
    restart,
    resume_build,
    run_until_crash,
)
from repro.core import get_builder
from repro.obs import (
    Trace,
    TraceRecorder,
    enable_tracing,
    key_metric,
    render_report,
)
from repro.obs.report import (
    drain_verdicts,
    main as report_main,
    phase_durations,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


# -- recorder unit behaviour -------------------------------------------------


class _FakeSim:
    def __init__(self, now=0.0):
        self.now = now


def test_spans_nest_and_close():
    recorder = TraceRecorder()
    sim = _FakeSim()
    recorder.bind(sim)
    outer = recorder.begin_span("build", mode="sf")
    sim.now = 3.0
    inner = recorder.begin_span("scan", parent=outer)
    sim.now = 7.0
    recorder.end_span(inner, pages=10)
    recorder.end_span(outer)
    kinds = [(e["kind"], e["name"]) for e in recorder.events]
    assert kinds == [("span_begin", "build"), ("span_begin", "scan"),
                     ("span_end", "scan"), ("span_end", "build")]
    begin = recorder.events[1]
    assert begin["parent"] == outer
    assert recorder.events[2]["attrs"] == {"pages": 10}
    # double end and unknown ids are silent no-ops
    recorder.end_span(inner)
    recorder.end_span(999)
    assert len(recorder.events) == 4


def test_rebind_bumps_epoch_and_keeps_time_monotone():
    recorder = TraceRecorder()
    first = _FakeSim()
    recorder.bind(first)
    first.now = 50.0
    recorder.instant("system.crash")
    # restart: a fresh simulator whose clock starts over at zero
    second = _FakeSim(now=0.0)
    assert recorder.bind(second) is True
    recorder.instant("system.restart")
    second.now = 10.0
    recorder.instant("later")
    t = [e["t"] for e in recorder.events]
    assert t == [50.0, 50.0, 60.0]
    epochs = [e["epoch"] for e in recorder.events]
    assert epochs == [0, 1, 1]
    # binding the same sim again is a no-op
    assert recorder.bind(second) is False
    assert recorder.epoch == 1


def test_jsonl_roundtrip_and_meta_line():
    recorder = TraceRecorder()
    recorder.bind(_FakeSim())
    recorder.instant("quiesce.begin", waited=0.5)
    recorder.gauge("sidefile.backlog", 3, index="idx")
    text = recorder.to_jsonl()
    lines = text.strip().split("\n")
    meta = json.loads(lines[0])
    assert meta == {"kind": "meta", "schema": 1, "epochs": 1, "events": 2}
    events = Trace.loads(text).events
    assert len(events) == 2  # meta line skipped
    assert events[1]["value"] == 3
    # attrs coerce non-JSON values to strings rather than failing
    recorder.instant("odd", obj=object(), key=(1, (2, 3)))
    odd = recorder.events[-1]["attrs"]
    assert isinstance(odd["obj"], str)
    assert odd["key"] == [1, [2, 3]]


def test_key_metric_handles_nested_and_non_numeric_keys():
    assert key_metric((42,)) == 42.0
    assert key_metric(((7, "x"), 9)) == 7.0
    assert key_metric(("name",)) == -1.0
    assert key_metric(()) == -1.0
    assert key_metric((True,)) == -1.0  # bools are not key magnitudes


# -- zero-cost-when-disabled contract ----------------------------------------


def test_disabled_tracing_records_nothing_and_changes_nothing():
    """With ``metrics.tracer`` left None the build runs exactly as
    before -- same simulated end time, same counters -- which is the
    whole point of the fault_point-style hook."""
    def build(tracer):
        system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                     sort_workspace=16), seed=3)
        if tracer is not None:
            enable_tracing(system, tracer)
        table = system.create_table("t", ["k", "p"])
        driver = WorkloadDriver(
            system, table,
            WorkloadSpec(operations=0, workers=1), seed=3)
        proc = system.spawn(driver.preload(120), name="preload")
        system.run()
        assert proc.error is None
        builder = get_builder("sf")(system, table,
                                    IndexSpec.of("idx", ["k"]))
        build_proc = system.spawn(builder.run(), name="builder")
        system.run()
        assert build_proc.error is None
        return system

    plain = build(None)
    assert plain.metrics.tracer is None
    recorder = TraceRecorder()
    traced = build(recorder)
    assert recorder.events, "tracer attached but nothing recorded"
    assert traced.now() == plain.now()
    assert traced.metrics.counters == plain.metrics.counters


# -- whole-build determinism -------------------------------------------------


def _traced_build(builder_name: str, partitions=None) -> TraceRecorder:
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 buffer_frames=64, sort_workspace=16,
                                 merge_fanin=4), seed=5)
    recorder = enable_tracing(system, sample_every=40.0)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=30, workers=2, think_time=1.0,
                        rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=5)
    preload = system.spawn(driver.preload(250), name="preload")
    system.run()
    assert preload.error is None
    options = BuildOptions(checkpoint_every_pages=8,
                           checkpoint_every_keys=64,
                           commit_every_keys=32, partitions=partitions)
    builder = get_builder(builder_name)(
        system, table, IndexSpec.of("idx", ["k"]), options=options)
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None
    audit_index(system, system.indexes["idx"])
    return recorder


def test_sf_trace_is_deterministic():
    first = _traced_build("sf").to_jsonl()
    second = _traced_build("sf").to_jsonl()
    assert first == second


def test_psf_trace_is_deterministic_and_has_shard_spans():
    first = _traced_build("psf", partitions=2)
    second = _traced_build("psf", partitions=2)
    assert first.to_jsonl() == second.to_jsonl()
    spans = Trace(first.events).spans
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["shard-scan"]) == 2
    scan = by_name["scan"][0]
    for shard_span in by_name["shard-scan"]:
        assert shard_span.parent == scan.span_id
        assert "barrier_wait" in shard_span.end_attrs
    assert len(by_name["shard-merge"]) == 2


# -- crash + recovery report golden ------------------------------------------


def _sf_crash_trace() -> TraceRecorder:
    """The SF-with-crash story: build under updates, power failure during
    the side-file drain, restart recovery, resumed drain, audit."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32), seed=13)
    recorder = enable_tracing(system, sample_every=40.0)
    table = system.create_table("events", ["ts", "payload"])
    spec = WorkloadSpec(operations=60, workers=2, think_time=0.8,
                        rollback_fraction=0.15)
    driver = WorkloadDriver(system, table, spec, seed=13)
    preload = system.spawn(driver.preload(1200), name="preload")
    system.run()
    assert preload.error is None
    options = BuildOptions(checkpoint_every_pages=16,
                           checkpoint_every_keys=128,
                           commit_every_keys=64)
    builder = get_builder("sf")(system, table,
                                IndexSpec.of("events_by_ts", ["ts"]),
                                options=options)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    run_until_crash(system, system.now() + 160.0)
    recovered, utility_state = restart(system, pre_undo=build_pre_undo)
    assert utility_state.get("phase") == "drain"
    resumed = resume_build(recovered, utility_state)
    assert resumed is not None
    enable_tracing(recovered, recorder, sample_every=40.0)
    proc = recovered.spawn(resumed.run(), name="resumed-builder")
    recovered.run()
    assert proc.error is None
    audit_index(recovered, recovered.indexes["events_by_ts"])
    return recorder


def test_sf_crash_report_matches_golden():
    recorder = _sf_crash_trace()
    report = render_report(recorder.events)
    # the story must be visible regardless of exact layout ...
    for needle in ("scan", "drain:events_by_ts", "cut-by-crash",
                   "system.crash", "system.restart", "sf.flip",
                   "sidefile.backlog[events_by_ts]"):
        assert needle in report, f"report lost the {needle!r} part"
    spans = Trace(recorder.events).spans
    crashed = [s.name for s in spans if s.crashed]
    assert "build" in crashed and "drain" in crashed
    # ... and the exact rendering is pinned as a golden
    golden = (GOLDEN_DIR / "sf_crash_report.out").read_text()
    assert report == golden, (
        "report drifted from sf_crash_report.out; if the change is "
        "intentional, regenerate the golden from render_report output "
        "of _sf_crash_trace()")


def test_phase_durations_from_crash_trace():
    recorder = _sf_crash_trace()
    durations = phase_durations(recorder.events)
    # two build spans (crashed + resumed) merge into one summed entry
    assert durations["build"] > 0
    assert durations["scan"] > 0
    assert durations["drain:events_by_ts"] > 0


def test_report_cli_renders_a_trace_file(tmp_path):
    recorder = _sf_crash_trace()
    trace_path = tmp_path / "crash.jsonl"
    recorder.write_jsonl(str(trace_path))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = report_main([str(trace_path), "--width", "50"])
    assert code == 0
    out = buffer.getvalue()
    assert "phase timeline" in out
    assert "drain:events_by_ts" in out
    # ... and ends with the drain verdict, after the rendered report
    assert out.startswith(render_report(recorder.events, width=50))
    assert out.endswith("\ndrain verdicts\n"
                        f"  {'drain:events_by_ts':<28} converging\n")


# -- the drain verdict ---------------------------------------------------------


def _drain_trace(backlogs, step=1.0):
    """One ``drain`` span of index ``idx`` with a backlog gauge per
    ``backlogs`` entry, ``step`` apart."""
    recorder = TraceRecorder()
    sim = _FakeSim()
    recorder.bind(sim)
    span = recorder.begin_span("drain", index="idx")
    for backlog in backlogs:
        sim.now += step
        recorder.gauge("sidefile.backlog", backlog, index="idx")
        recorder.gauge("sidefile.backlog", 99, index="other")
    recorder.end_span(span)
    return recorder.events


def test_drain_verdict_rule_over_the_backlog_gauge():
    # under four samples there is no verdict, however flat the backlog
    assert drain_verdicts(_drain_trace([5, 5, 5])) == {"idx": []}
    # a drained side-file is never diverging
    assert drain_verdicts(_drain_trace([0, 0, 0, 0, 0])) == {"idx": []}
    # time must advance across the window
    assert drain_verdicts(_drain_trace([5] * 6, step=0.0)) == {"idx": []}
    # the fourth sample judges: equal backlog is diverging (drain rate
    # = append rate), one episode however long it lasts
    assert drain_verdicts(_drain_trace([5, 5, 5, 5, 5, 5])) \
        == {"idx": [4.0]}
    # a falling backlog converges, and the drain recovers: a stall that
    # outlasts the fall by the eight-sample window is a second episode
    stall = [5, 5, 5, 5, 4, 3, 2, 2, 2, 2, 2, 2, 2, 2]
    assert drain_verdicts(_drain_trace(stall[:-1])) == {"idx": [4.0]}
    assert drain_verdicts(_drain_trace(stall)) == {"idx": [4.0, 14.0]}
    assert drain_verdicts(_drain_trace([9, 8, 7, 6, 5, 4, 3, 2])) \
        == {"idx": []}


def test_underthrottled_drain_is_flagged_diverging():
    """A hard-throttled SF build draining against live updates cannot
    gain on the side-file: the report flags it diverging, at the four
    instants the live tracker this reader replaced reported for the
    same seeded run, and the build still completes (EXPERIMENTS.md
    E24)."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32,
                                 build_rate_limit=3.0), seed=7)
    recorder = enable_tracing(system)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=120, workers=3, think_time=0.4,
                        rollback_fraction=0.0, update_weight=0.0)
    driver = WorkloadDriver(system, table, spec, seed=7)
    preload = system.spawn(driver.preload(300), name="preload")
    system.run()
    assert preload.error is None
    builder = get_builder("sf")(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_keys=64, drain_batch=4))
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert proc.error is None
    verdicts = drain_verdicts(recorder.events)
    assert {index: [round(t, 4) for t in starts]
            for index, starts in verdicts.items()} \
        == {"idx": [317.1167, 324.1167, 332.1167, 343.7833]}
    audit_index(system, system.indexes["idx"])


# -- double crash/restart: recorder survives repeated re-binds ----------------


def test_double_crash_restart_keeps_time_monotone_and_one_sampler():
    """Crash the build twice: the recorder re-binds twice (three
    epochs), exported timestamps stay monotone end to end, and the
    ``_sampler_sim`` guard never spawns a duplicate sampler process."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32), seed=13)
    recorder = enable_tracing(system, sample_every=40.0)
    table = system.create_table("events", ["ts", "payload"])
    spec = WorkloadSpec(operations=60, workers=2, think_time=0.8,
                        rollback_fraction=0.15)
    driver = WorkloadDriver(system, table, spec, seed=13)
    preload = system.spawn(driver.preload(1200), name="preload")
    system.run()
    assert preload.error is None
    options = BuildOptions(checkpoint_every_pages=16,
                           checkpoint_every_keys=128,
                           commit_every_keys=64)
    builder = get_builder("sf")(system, table,
                                IndexSpec.of("events_by_ts", ["ts"]),
                                options=options)
    system.spawn(builder.run(), name="builder")
    driver.spawn_workers()

    # crash #1 mid-drain, restart, resume
    run_until_crash(system, system.now() + 160.0)
    recovered, utility_state = restart(system, pre_undo=build_pre_undo)
    assert utility_state.get("phase") == "drain"
    resumed = resume_build(recovered, utility_state)
    assert resumed is not None
    enable_tracing(recovered, recorder, sample_every=40.0)
    assert recorder.epoch == 1
    recovered.spawn(resumed.run(), name="resumed-builder")

    # crash #2 shortly into the resumed drain, restart, resume again
    run_until_crash(recovered, recovered.now() + 5.0)
    recovered2, utility_state2 = restart(recovered, pre_undo=build_pre_undo)
    assert utility_state2.get("phase") == "drain"
    resumed2 = resume_build(recovered2, utility_state2)
    assert resumed2 is not None
    enable_tracing(recovered2, recorder, sample_every=40.0)
    assert recorder.epoch == 2
    # re-enabling on the same simulator must not spawn a second sampler
    live_before = recovered2.sim.live_processes
    again = enable_tracing(recovered2, recorder, sample_every=40.0)
    assert again is recorder
    assert recovered2.sim.live_processes == live_before

    proc = recovered2.spawn(resumed2.run(), name="resumed-builder-2")
    recovered2.run()
    assert proc.error is None
    audit_index(recovered2, recovered2.indexes["events_by_ts"])

    events = recorder.events
    assert {e["epoch"] for e in events} == {0, 1, 2}
    assert [e["name"] for e in events].count("system.crash") == 2
    assert [e["name"] for e in events].count("system.restart") == 2
    times = [e["t"] for e in events]
    assert times == sorted(times), "re-binds broke timestamp monotonicity"
    # one sampler per epoch: no duplicated gauge samples at the same
    # instant (the signature a doubled sampler process would leave)
    gauge_keys = [(e["t"], e["name"], (e.get("attrs") or {}).get("index"))
                  for e in events if e["kind"] == "gauge"]
    assert len(gauge_keys) == len(set(gauge_keys))
