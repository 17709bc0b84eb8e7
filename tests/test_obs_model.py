"""Tests for the trace model itself (repro.obs.trace, repro.obs.handle).

* round trip -- every reader (report, latency analyzer,
  ``phase_durations``, ``drain_verdicts``) gives the same result from ``recorder.events``
  and from ``Trace.loads(recorder.to_jsonl())``, for the quickstart, the
  SF crash story and an open-loop run;
* one pairing rule -- the ``op`` spans the report marks ``crashed`` and
  the ones the latency analyzer counts as ``excluded`` are one set;
* off means off -- with nothing attached a build calls nothing in
  ``src/repro/obs/`` but the no-op handle's methods;
* trace files are outside input -- a truncated file, an unknown schema
  and a wrong event count are one ``error:`` line and exit 2 from
  both CLIs.
"""

import cProfile
import gc
import json
import pathlib
import pstats

import pytest

from repro import (
    IndexSpec,
    SFIndexBuilder,
    System,
    SystemConfig,
    WorkloadDriver,
    WorkloadSpec,
    run_until_crash,
)
from repro.obs import Trace, TraceError, enable_tracing
from repro.obs.handle import NO_OBS, _NoObs
from repro.obs.report import (
    drain_verdicts,
    main as report_main,
    phase_durations,
    render_report,
)
from repro.slo import latency_report
from repro.slo.__main__ import main as slo_main
from repro.workloads.openloop import OpenLoopDriver, OpenLoopSpec

from tests.test_obs_trace import _sf_crash_trace

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


# -- the three traces --------------------------------------------------------


def _quickstart_trace():
    """``examples/quickstart.py --trace-out``, in process."""
    system = System(SystemConfig(page_capacity=16, leaf_capacity=16),
                    seed=2026)
    recorder = enable_tracing(system)
    table = system.create_table("orders", ["order_id", "payload"])
    spec = WorkloadSpec(operations=150, workers=4, think_time=0.5,
                        rollback_fraction=0.1, key_space=1_000_000)
    driver = WorkloadDriver(system, table, spec, seed=2026)
    preload = system.spawn(driver.preload(2_000), name="preload")
    system.run()
    assert preload.error is None
    builder = SFIndexBuilder(system, table,
                             IndexSpec.of("orders_by_id", ["order_id"]))
    build = system.spawn(builder.run(), name="index-builder")
    driver.spawn_workers()
    system.run()
    assert build.error is None
    return recorder


def _open_loop_trace(crash_at=None):
    """An SF build under open-loop traffic, optionally cut by a crash."""
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 buffer_frames=16, disk_channels=1,
                                 sort_workspace=32), seed=6)
    recorder = enable_tracing(system)
    table = system.create_table("t", ["k", "p"])
    spec = OpenLoopSpec(operations=150, rate=2.0, key_space=500)
    driver = OpenLoopDriver(system, table, spec, seed=6)
    preload = system.spawn(driver.preload(300), name="preload")
    system.run()
    assert preload.error is None
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    build = system.spawn(builder.run(), name="builder")
    driver.spawn()
    if crash_at is None:
        system.run()
        assert build.error is None
    else:
        run_until_crash(system, system.now() + crash_at)
    return recorder


def _readings(source) -> dict:
    """What every reader makes of one trace source."""
    readings = {
        "report": render_report(source),
        "phases": phase_durations(source),
        "drains": drain_verdicts(source),
    }
    try:
        readings["latency"] = latency_report(source, only_outcome=None)
    except ValueError as exc:  # a trace with no op spans
        readings["latency"] = str(exc)
    return readings


@pytest.mark.parametrize("make", [_quickstart_trace, _sf_crash_trace,
                                  _open_loop_trace])
def test_every_reader_agrees_on_events_and_on_the_loaded_file(make):
    recorder = make()
    if make is _quickstart_trace:
        assert recorder.to_jsonl() \
            == (GOLDEN / "quickstart_trace.jsonl").read_text()
    live = _readings(recorder.events)
    loaded = Trace.loads(recorder.to_jsonl())
    assert len(loaded.events) == len(recorder.events)
    assert _readings(loaded) == live
    assert _readings(loaded.events) == live  # and a trace is re-readable
    assert "latency" in live and live["phases"]["build"] > 0
    assert set(live["drains"]) == {span.attrs["index"]
                                   for span in loaded.spans
                                   if span.name == "drain"}


# -- one pairing rule --------------------------------------------------------


def test_report_and_analyzer_agree_on_which_ops_a_crash_cut():
    recorder = _open_loop_trace(crash_at=60.0)
    trace = Trace(recorder.events)
    ops = [span for span in trace.spans if span.name == "op"]
    unfinished = [span.span_id for span in ops if not span.finished]
    crashed = [span.span_id for span in ops if span.crashed]
    assert crashed and crashed == unfinished
    report = latency_report(trace, only_outcome=None)
    assert report["excluded"] == len(crashed)
    assert report["ops"] == len(ops) - len(crashed)
    assert f"({len([s for s in trace.spans if s.crashed])} cut short" \
        in render_report(trace)


# -- off means off -----------------------------------------------------------


def test_an_unobserved_build_calls_only_the_noop_handle():
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 sort_workspace=16), seed=3)
    table = system.create_table("t", ["k", "p"])
    driver = WorkloadDriver(
        system, table, WorkloadSpec(operations=20, workers=2,
                                    think_time=0.5), seed=3)
    preload = system.spawn(driver.preload(200), name="preload")
    system.run()
    assert preload.error is None
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    assert builder.obs is NO_OBS
    # the handle is spans, instants and gauges: nothing else to call
    assert {name for name in vars(_NoObs) if not name.startswith("_")} \
        == {"tracer", "begin", "end", "instant", "gauge"}
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    # A cyclic-GC pass inside the window could finalise an earlier
    # test's observed objects and show their calls: collect first, and
    # keep the collector off while profiling.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        system.run()
        profiler.disable()
    finally:
        if collecting:
            gc.enable()
    assert proc.error is None
    noop = {(code.co_filename, code.co_firstlineno, code.co_name)
            for code in (getattr(getattr(value, "__func__", value),
                                 "__code__", None)
                         for value in vars(_NoObs).values())
            if code is not None}
    called = {key for key in pstats.Stats(profiler).stats
              if "/repro/obs/" in key[0].replace("\\", "/")}
    assert called, "the build never reached its handle"
    assert called <= noop, f"an unobserved build called {called - noop}"


# -- malformed trace files ---------------------------------------------------


def _truncated(text: str) -> str:
    return text[:3000]


def _unknown_schema(text: str) -> str:
    return text.replace('"schema":1', '"schema":99', 1)


def _wrong_count(text: str) -> str:
    return "\n".join(text.splitlines()[:-3]) + "\n"


@pytest.mark.parametrize("cli", [report_main, slo_main])
@pytest.mark.parametrize("damage,needle", [
    (_truncated, "is not JSON"),
    (_unknown_schema, "schema 99"),
    (_wrong_count, "promises"),
])
def test_malformed_trace_is_one_error_line_and_exit_2(
        cli, damage, needle, tmp_path, capsys):
    good = (GOLDEN / "quickstart_trace.jsonl").read_text()
    path = tmp_path / "bad.jsonl"
    path.write_text(damage(good))
    with pytest.raises(TraceError, match=needle):
        Trace.load(str(path))
    assert cli([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]
    # the undamaged file is fine (the analyzer finds no op spans in it,
    # which is its own error, exit 1)
    path.write_text(good)
    assert cli([str(path)]) == (1 if cli is slo_main else 0)


def test_decode_error_names_the_line():
    lines = (GOLDEN / "quickstart_trace.jsonl").read_text().splitlines()
    lines[4] = lines[4][:-7]
    with pytest.raises(TraceError, match="line 5 is not JSON"):
        Trace.loads("\n".join(lines))
    assert json.loads(lines[0])["kind"] == "meta"
