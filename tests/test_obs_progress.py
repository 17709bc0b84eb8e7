"""Tests for live build-progress tracking (repro.obs.progress).

Four layers:

* phase-plan / verdict unit behaviour -- the phases every mode declares
  weigh one in all, the drain judge flips to ``diverging`` (once) when
  the drain stops gaining and recovers when the balance improves;
* whole-build coverage -- every builder mode (offline, nsf, sf, psf,
  multi) reports a monotone fraction that ends at 1.0 with a refined
  ETA; a rebuild, which never scans, never reports a scan; a sharded
  ``sf`` / ``multi`` build reports its ``merge``;
* the zero-cost contract -- enabling tracking never perturbs the
  schedule (same end time, same counters as the untracked run), and the
  utility-checkpoint payload only grows a ``progress`` key when a
  tracker is installed;
* crash safety -- a build crashed mid-drain resumes reporting resumed
  progress (its checkpointed floor), never 0%.
"""

import math

import pytest

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
from repro.obs import Phase, TraceRecorder, enable_progress, enable_tracing
from repro.obs.progress import DRAIN_MIN_SAMPLES, BuildProgress


# -- unit behaviour ----------------------------------------------------------


@pytest.mark.parametrize("mode", ["offline", "nsf", "sf", "psf", "multi"])
@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
def test_phase_plan_weights_sum_to_one(mode, names):
    system = System(SystemConfig(), seed=1)
    table = system.create_table("t", ["k", "p"])
    builder = get_builder(mode)(
        system, table, [IndexSpec(name, ("k",)) for name in names])
    plan = builder._phases()
    assert math.isclose(sum(phase.weight for phase in plan), 1.0)
    assert plan[0].key == "scan"
    keys = [phase.key for phase in plan]
    assert len(keys) == len(set(keys))
    assert [phase.key for phase in plan if phase.races] \
        == [key for key in keys if key.startswith("drain:")]


class _FakeSim:
    def __init__(self, now=0.0):
        self.now = now


_SF_PLAN = [Phase("scan", 0.50), Phase("load:idx", 0.35),
            Phase("drain:idx", 0.15, races=True)]


def _fresh_progress():
    sim = _FakeSim()
    recorder = TraceRecorder()
    recorder.bind(sim)
    return sim, recorder, BuildProgress("idx", "sf", _SF_PLAN, sim, recorder)


def _drain_progress():
    sim, recorder, progress = _fresh_progress()
    progress.advance("scan", None, 10, step=10)
    progress.close("scan")
    progress.advance("load:idx", 100, 100)
    progress.close("load:idx")
    return sim, recorder, progress


def test_drain_judge_flips_to_diverging_once_and_recovers():
    sim, recorder, progress = _drain_progress()
    # drain gains 5/tick while the side-file grows 10/tick: not converging
    position, total = 0, 40
    for tick in range(DRAIN_MIN_SAMPLES + 1):
        sim.now += 1.0
        position += 5
        total += 10
        progress.advance("drain:idx", position, total)
    assert progress.verdict == "diverging"
    assert progress.eta is None
    diverging = [e for e in recorder.events
                 if e["name"] == "build.diverging"]
    assert len(diverging) == 1, "diverging instant must be one-shot"
    assert diverging[0]["attrs"]["build"] == "idx"
    # the balance recovers: appends stop, the drain keeps gaining
    for tick in range(8):
        sim.now += 1.0
        position += 20
        progress.advance("drain:idx", min(position, total), total)
    assert progress.verdict == "converging"
    assert progress.eta is not None
    assert len([e for e in recorder.events
                if e["name"] == "build.diverging"]) == 1
    progress.close("drain:idx")
    progress.finish()
    assert progress.verdict == "done"
    assert progress.eta == 0.0
    assert progress.snapshot()["fraction"] == 1.0


def test_fraction_is_monotone_under_shrinking_phase_estimates():
    _sim, _recorder, progress = _drain_progress()
    before = progress.snapshot()["fraction"]
    # a growing side-file shrinks the raw drain fraction; the published
    # fraction must never move backwards
    progress.advance("drain:idx", 50, 100)
    mid = progress.snapshot()["fraction"]
    assert mid >= before
    progress.advance("drain:idx", 50, 400)
    assert progress.snapshot()["fraction"] >= mid


def test_restore_floors_progress_at_checkpoint_fraction():
    _sim, _recorder, progress = _drain_progress()
    state = progress.checkpoint_state()
    assert state["fraction"] > 0.5
    assert state["scan"] == [10, 10]
    _sim, _recorder, fresh = _fresh_progress()
    fresh.restore(state)
    assert fresh.snapshot()["fraction"] >= state["fraction"]
    assert fresh.fractions["scan"] == 1.0


# -- whole-build coverage ----------------------------------------------------


def _tracked_build(mode, specs=None, partitions=None, seed=5):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 buffer_frames=64, sort_workspace=16,
                                 merge_fanin=4), seed=seed)
    recorder = enable_tracing(system)
    tracker = enable_progress(system)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=25, workers=2, think_time=1.0,
                        rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=seed)
    preload = system.spawn(driver.preload(250), name="preload")
    system.run()
    assert preload.error is None
    if specs is None:
        specs = IndexSpec.of("idx", ["k"])
    options = BuildOptions(checkpoint_every_pages=8,
                           checkpoint_every_keys=64,
                           commit_every_keys=32, partitions=partitions)
    builder = get_builder(mode)(system, table, specs, options=options)
    proc = system.spawn(builder.run(), name="builder")
    if mode != "offline":
        driver.spawn_workers()
    system.run()
    assert proc.error is None
    return system, recorder, tracker


@pytest.mark.parametrize("mode,kwargs", [
    ("offline", {}),
    ("nsf", {}),
    ("sf", {}),
    ("psf", {"partitions": 2}),
    ("multi", {"specs": [IndexSpec("idx", ("k",)),
                         IndexSpec("idx_p", ("p",))]}),
])
def test_every_builder_reports_progress_to_completion(mode, kwargs):
    system, recorder, tracker = _tracked_build(mode, **kwargs)
    snapshot = tracker.snapshot()
    assert len(snapshot) == 1
    (label, state), = snapshot.items()
    assert state["fraction"] == 1.0
    assert state["verdict"] == "done"
    assert state["eta"] == 0.0
    assert state["mode"] == mode
    assert all(value == 1.0 for value in state["fractions"].values())
    # the build.progress gauge stream is monotone and complete
    points = [e["value"] for e in recorder.events
              if e["kind"] == "gauge" and e["name"] == "build.progress"
              and e["attrs"]["build"] == label]
    assert points, "no build.progress gauges published"
    assert points == sorted(points)
    assert points[-1] == 1.0
    for name in system.indexes:
        audit_index(system, system.indexes[name])


def _published(recorder, label):
    """The ``(fraction, phase)`` points of one build's gauge stream."""
    return [(e["value"], e["attrs"]["phase"]) for e in recorder.events
            if e["kind"] == "gauge" and e["name"] == "build.progress"
            and e["attrs"]["build"] == label]


def test_rebuild_reports_no_scan_and_no_jump_at_finish():
    """A rebuild never scans, so it declares no scan phase: the first
    thing it reports is its load, and the fraction climbs in steps no
    larger than its largest phase instead of sitting in ``scan`` and
    jumping to 1.0 when the build ends."""
    system, recorder, tracker = _tracked_build("sf")
    before = len(recorder.events)
    builder = system.rebuild_index(
        "idx", BuildOptions(checkpoint_every_keys=64))
    proc = system.spawn(builder.run(), name="rebuilder")
    system.run()
    assert proc.error is None
    assert "scan" not in tracker.snapshot()["idx"]["fractions"]
    recorder.events[:before] = []
    points = _published(recorder, "idx")
    assert points[0][1] == "load:idx"
    fractions = [0.0] + [fraction for fraction, _phase in points]
    assert fractions == sorted(fractions) and fractions[-1] == 1.0
    largest = max(phase.weight for phase in builder._phases())
    assert max(b - a for a, b in zip(fractions, fractions[1:])) \
        <= largest + 1e-9
    audit_index(system, system.indexes["idx"])


@pytest.mark.parametrize("mode,specs", [
    ("sf", None),
    ("multi", [IndexSpec("idx", ("k",)), IndexSpec("idx_p", ("p",))]),
])
def test_sharded_scan_reports_its_merge_whatever_the_mode(mode, specs):
    """The ``merge`` phase belongs to the shard scan, not to the name
    ``psf``: any build with ``partitions`` set opens a merge span and
    now reports a merge phase with it."""
    _system, recorder, tracker = _tracked_build(mode, specs=specs,
                                                partitions=2)
    (label, state), = tracker.snapshot().items()
    assert state["fractions"]["merge"] == 1.0
    assert "merge" in [phase for _fraction, phase
                       in _published(recorder, label)]
    assert any(e["kind"] == "span_begin" and e["name"] == "merge"
               for e in recorder.events)


def test_eta_is_refined_toward_zero_on_clean_sf_build():
    _system, recorder, _tracker = _tracked_build("sf")
    finish = max(e["t"] for e in recorder.events)
    etas = [(e["t"], e["value"]) for e in recorder.events
            if e["kind"] == "gauge" and e["name"] == "build.eta"
            and e["value"] >= 0.0]
    assert len(etas) >= 3
    assert etas[-1][1] == 0.0  # finish() publishes a zero ETA
    # the prediction sharpens: the last in-flight estimate's predicted
    # finish time is at least as accurate as the first one's
    in_flight = [(t, value) for t, value in etas if value > 0.0]
    assert in_flight, "no in-flight ETA was ever published"
    first_err = abs(in_flight[0][0] + in_flight[0][1] - finish)
    last_err = abs(in_flight[-1][0] + in_flight[-1][1] - finish)
    assert last_err <= first_err


# -- zero-cost contract ------------------------------------------------------


def _plain_build(tracked: bool):
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    tracker = enable_progress(system) if tracked else None
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table, WorkloadSpec(operations=20, workers=2,
                                    think_time=0.5), seed=3)
    proc = system.spawn(driver.preload(120), name="preload")
    system.run()
    assert proc.error is None
    builder = get_builder("sf")(
        system, table, IndexSpec.of("idx", ["k"]),
        options=BuildOptions(checkpoint_every_pages=8,
                             checkpoint_every_keys=64))
    build_proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    system.run()
    assert build_proc.error is None
    return system, tracker


def test_tracking_never_perturbs_the_schedule():
    """The whole point of the fault_point-style hook: enabling progress
    tracking (which attaches a passive recorder too) leaves the
    simulated end time and every counter untouched."""
    plain, _ = _plain_build(tracked=False)
    tracked, tracker = _plain_build(tracked=True)
    assert plain.metrics.tracer is None
    assert tracked.metrics.tracer.progress is tracker
    assert tracker.snapshot()["idx"]["fraction"] == 1.0
    assert tracked.now() == plain.now()
    assert tracked.metrics.counters == plain.metrics.counters


def test_checkpoint_payload_is_conditional_on_tracking():
    plain, _ = _plain_build(tracked=False)
    tracked, _ = _plain_build(tracked=True)
    plain_state = plain.log.latest_checkpoint().info["utility_state"]
    tracked_state = tracked.log.latest_checkpoint().info["utility_state"]
    assert "progress" not in plain_state
    assert "progress" in tracked_state
    assert tracked_state["progress"]["fraction"] == 1.0


# -- crash + resume ----------------------------------------------------------


def test_resumed_build_reports_resumed_progress_not_zero():
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32), seed=13)
    recorder = enable_tracing(system, sample_every=40.0)
    tracker = enable_progress(system)
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
    crashed_fraction = tracker.snapshot()["events_by_ts"]["fraction"]
    assert crashed_fraction > 0.0

    recovered, utility_state = restart(system, pre_undo=build_pre_undo)
    assert recovered.metrics.tracer.progress is tracker  # carried across
    assert "progress" in utility_state
    resumed = resume_build(recovered, utility_state)
    assert resumed is not None
    enable_tracing(recovered, recorder, sample_every=40.0)
    # the re-registered build starts from its checkpointed floor ...
    floor = utility_state["progress"]["fraction"]
    assert floor > 0.0
    resumed_snapshot = tracker.snapshot()["events_by_ts"]
    assert resumed_snapshot["fraction"] >= floor
    proc = recovered.spawn(resumed.run(), name="resumed-builder")
    recovered.run()
    assert proc.error is None
    audit_index(recovered, recovered.indexes["events_by_ts"])
    # ... and every fraction published after the restart stays above it
    restart_t = next(e["t"] for e in recorder.events
                     if e["name"] == "system.restart")
    after = [e["value"] for e in recorder.events
             if e["kind"] == "gauge" and e["name"] == "build.progress"
             and e["t"] >= restart_t]
    assert after, "resumed build published no progress"
    assert min(after) >= floor
    assert after[-1] == 1.0
    final = tracker.snapshot()["events_by_ts"]
    assert final["verdict"] == "done"
    assert final["fraction"] == 1.0


# -- divergence under real throttled load ------------------------------------


def test_underthrottled_drain_is_flagged_diverging():
    """A hard-throttled SF build draining against live updates cannot
    gain on the side-file: the tracker must flag it ``diverging`` while
    the race is on, then report convergence and completion once the
    update stream ends (EXPERIMENTS.md E24)."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=32,
                                 build_rate_limit=3.0), seed=7)
    recorder = enable_tracing(system)
    tracker = enable_progress(system)
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
    diverging = [e for e in recorder.events
                 if e["name"] == "build.diverging"]
    assert diverging, "under-throttled drain was never flagged"
    assert diverging[0]["attrs"]["phase"] == "drain:idx"
    final = tracker.snapshot()["idx"]
    assert final["verdict"] == "done"
    assert final["fraction"] == 1.0
    audit_index(system, system.indexes["idx"])
