"""Latency-oracle tests: exact percentile math on hand-built traces,
the report's window/outcome filters, the tradeoff suite's rows and
gates (including a tampered payload tripping them), and the analyzer
CLI round trip."""

import json
import math

import pytest

from repro.bench.runner import SCHEMA_VERSION, check
from repro.obs import Trace
from repro.slo import latency_report, percentile, queue_high_water
from repro.slo import tradeoff
from repro.slo.__main__ import main as slo_main


# -- hand-built traces -------------------------------------------------------


def _span(span_id, t0, t1, op="read", outcome="committed"):
    """One completed ``op`` span as the recorder would emit it."""
    return [
        {"kind": "span_begin", "name": "op", "span": span_id, "t": t0,
         "attrs": {"op": op, "id": span_id}},
        {"kind": "span_end", "name": "op", "span": span_id, "t": t1,
         "attrs": {"outcome": outcome}},
    ]


def _trace(*spans):
    events = []
    for span in spans:
        events.extend(span)
    events.sort(key=lambda e: e["t"])
    return events


# -- percentile math ---------------------------------------------------------


def test_nearest_rank_percentiles_are_exact():
    one_to_ten = [float(v) for v in range(1, 11)]
    assert percentile(one_to_ten, 50) == 5.0
    assert percentile(one_to_ten, 95) == 10.0
    assert percentile(one_to_ten, 100) == 10.0
    assert percentile(one_to_ten, 1) == 1.0
    one_to_hundred = [float(v) for v in range(1, 101)]
    assert percentile(one_to_hundred, 99) == 99.0
    assert percentile(one_to_hundred, 50) == 50.0
    # unsorted input, single element
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    for bad_q in (0.0, -1.0, 101.0):
        with pytest.raises(ValueError):
            percentile([1.0], bad_q)


# -- span pairing and the report ---------------------------------------------


def test_crash_cut_spans_are_excluded_not_zero():
    events = _trace(_span(1, 0.0, 4.0), _span(2, 1.0, 3.0))
    events.append({"kind": "span_begin", "name": "op", "span": 3,
                   "t": 2.0, "attrs": {"op": "update", "id": 3}})
    ops = Trace(events).spans
    assert sorted(span.duration for span in ops if span.finished) \
        == [2.0, 4.0]
    assert [span.span_id for span in ops if not span.finished] == [3]
    report = latency_report(events)
    assert report["ops"] == 2
    assert report["excluded"] == 1
    assert report["p50"] == 2.0 and report["max"] == 4.0


def test_report_filters_outcomes_and_windows():
    events = _trace(
        _span(1, 0.0, 1.0),                        # committed, in window
        _span(2, 5.0, 105.0, op="update"),         # committed, in window
        _span(3, 8.0, 9.0, outcome="aborted"),     # dropped by outcome
        _span(4, 50.0, 51.0),                      # issued past window
    )
    report = latency_report(events, window=(0.0, 10.0))
    assert report["ops"] == 2
    assert report["dropped"] == 1
    # span 2 completes outside the window but was ISSUED inside it, so
    # its full latency counts -- the property that keeps a build-window
    # report honest about operations the build delayed past its end
    assert report["max"] == 100.0
    assert sorted(report["by_op"]) == ["read", "update"]
    everything = latency_report(events, only_outcome=None)
    assert everything["ops"] == 4 and everything["dropped"] == 0


def test_window_limits_the_crash_cut_count_too():
    # an op cut short by a crash before the window is not part of the
    # windowed population, so it is not counted as excluded either
    events = [{"kind": "span_begin", "name": "op", "span": 1, "t": 1.0,
               "attrs": {"op": "update", "id": 1}},
              {"kind": "instant", "name": "system.crash", "t": 2.0,
               "attrs": {}}]
    events += _trace(_span(2, 10.0, 12.0), _span(3, 11.0, 14.0))
    assert [span.crashed for span in Trace(events).spans] \
        == [True, False, False]
    report = latency_report(events, window=(5.0, 20.0))
    assert report["ops"] == 2
    assert report["excluded"] == 0
    assert latency_report(events)["excluded"] == 1


def test_report_raises_on_empty_population():
    with pytest.raises(ValueError):
        latency_report(_trace(_span(1, 0.0, 1.0)), window=(50.0, 60.0))


def test_queue_high_water_respects_window():
    events = [
        {"kind": "gauge", "name": "openloop.inflight", "t": 1.0,
         "value": 3},
        {"kind": "gauge", "name": "openloop.inflight", "t": 5.0,
         "value": 9},
        {"kind": "gauge", "name": "other.gauge", "t": 5.0, "value": 99},
    ]
    assert queue_high_water(events) == 9
    assert queue_high_water(events, window=(0.0, 2.0)) == 3
    assert queue_high_water([]) == 0


def test_parse_trace_drops_the_meta_line():
    text = "\n".join([
        json.dumps({"kind": "meta", "schema": 1, "events": 1}),
        json.dumps({"kind": "gauge", "name": "openloop.inflight",
                    "t": 0.0, "value": 2}),
        "",
    ])
    events = Trace.loads(text).events
    assert len(events) == 1 and events[0]["kind"] == "gauge"


# -- synthetic stall trips the gate ------------------------------------------


def test_injected_stall_moves_the_tail_not_the_median():
    """A single stalled operation must surface in p99/max while leaving
    p50 untouched -- the property the tradeoff suite's p99 gate relies
    on to catch an unthrottled build's interference."""
    healthy = [_span(i, float(i), float(i) + 2.0) for i in range(50)]
    baseline = latency_report(_trace(*healthy))
    stalled = healthy + [_span(50, 50.0, 50.0 + 500.0)]
    report = latency_report(_trace(*stalled))
    assert baseline["p99"] == 2.0
    assert report["p50"] == baseline["p50"] == 2.0
    assert report["p99"] == 500.0 and report["max"] == 500.0


# -- tradeoff suite: rows and gates -------------------------------------------


def _latency(p99):
    return {"ops": 150, "p50": p99 / 4, "p95": p99 * 0.9, "p99": p99,
            "max": p99 * 1.5, "mean": p99 / 3, "excluded": 0,
            "dropped": 0, "queue_high_water": 2, "by_op": {}}


def _fake_payload(baseline_p99=20.0, tight_p99=None, build_times=None,
                  bursty_p99=30.0, bursty_tight_p99=None):
    """Every row the suite enumerates, with controllable gate inputs:
    the tightest-throttle rows carry ``tight_p99`` (default: the
    baseline's), every looser row twice the baseline's."""
    if build_times is None:
        build_times = [100.0 * (3 ** i) for i in range(len(tradeoff.RATES))]

    def sweep(prefix, builders, rates, times, baseline, tight):
        for builder in builders:
            for i, rate in enumerate(rates):
                p99 = baseline * 2.0 if i < len(rates) - 1 \
                    else baseline if tight is None else tight
                yield (f"{prefix}/{builder}/rate_{tradeoff.rate_label(rate)}",
                       {"ok": True, "build_time": times[i],
                        "latency": _latency(p99)})

    rows = {"baseline": {"ok": True, "latency": _latency(baseline_p99)},
            "bursty/baseline": {"ok": True,
                                "latency": _latency(bursty_p99)}}
    rows.update(sweep("tradeoff", tradeoff.BUILDERS, tradeoff.RATES,
                      build_times, baseline_p99, tight_p99))
    rows.update(sweep("bursty", [tradeoff.BURSTY_BUILDER],
                      tradeoff.BURSTY_RATES, [100.0, 200.0], bursty_p99,
                      bursty_tight_p99))
    return {"schema_version": SCHEMA_VERSION, "suites": {"slo": rows}}


def _check(payload, baseline=None):
    return check(payload, [tradeoff.SUITE], baseline)


def test_fake_payload_passes_all_gates():
    payload = _fake_payload()
    assert sorted(payload["suites"]["slo"]) == sorted(tradeoff.SUITE.rows)
    assert _check(payload) == []
    assert _check(payload, _fake_payload()) == []


def test_check_names_rows_and_fields_that_differ_in_shape():
    reference = _fake_payload()
    payload = _fake_payload()
    payload["suites"]["slo"]["tradeoff/sf/rate_0.4"]["latency"].pop("p95")
    payload["suites"]["slo"]["tradeoff/unknown"] = {"ok": True}
    assert _check(payload, reference) == [
        "slo/tradeoff/sf/rate_0.4/latency/p95: in the baseline, not in "
        "this run",
        "slo/tradeoff/unknown: in this run, not in the baseline"]
    reference["schema_version"] = 99
    assert any("schema_version" in p for p in _check(payload, reference))


def test_check_names_every_missing_row():
    payload = _fake_payload()
    for name in list(payload["suites"]["slo"]):
        if name.startswith(("tradeoff/sf/", "bursty/sf/")):
            del payload["suites"]["slo"][name]
    assert _check(payload) == [
        f"slo/{prefix}/sf/rate_{tradeoff.rate_label(rate)}: row missing"
        for prefix, rates in (("tradeoff", tradeoff.RATES),
                              ("bursty", tradeoff.BURSTY_RATES))
        for rate in rates]


def test_gate_trips_on_non_monotone_build_time():
    payload = _fake_payload(build_times=[100.0, 300.0, 200.0, 900.0])
    problems = _check(payload)
    assert len(problems) == len(tradeoff.BUILDERS)
    assert "slo/tradeoff/nsf/rate_0.1: build_time fell from 300.0 to " \
        "200.0 when tightening from tradeoff/nsf/rate_0.4" in problems
    flat = _fake_payload(build_times=[100.0] * 4)
    assert any(p.startswith("slo/tradeoff/sf/rate_0.05: ")
               and "not throttling" in p for p in _check(flat))


def test_gate_trips_on_unprotected_p99():
    """Tamper: a synthetic stall pushes the tightest-throttle p99 past
    the protection ceiling -- the gate must trip for online builders."""
    ceiling = 20.0 * tradeoff.P99_PROTECTION_FACTOR
    assert _check(_fake_payload(baseline_p99=20.0,
                                tight_p99=ceiling)) == []
    problems = _check(_fake_payload(baseline_p99=20.0, tight_p99=100.0))
    # offline is excluded from the p99 gate by design
    assert problems == [
        f"slo/tradeoff/{builder}/rate_0.05: windowed p99 100.00 exceeds "
        f"1.2x baseline (24.00)" for builder in tradeoff.ONLINE_BUILDERS]


def test_bursty_rows_pass_when_tail_is_protected():
    ceiling = 30.0 * tradeoff.P99_PROTECTION_FACTOR
    assert _check(_fake_payload(bursty_p99=30.0,
                                bursty_tight_p99=ceiling)) == []


def test_bursty_gate_trips_on_unprotected_tail():
    """The bursty p99 ceiling is relative to the *bursty* baseline --
    burst backlog raises the floor for everyone -- and must trip when
    the throttled build still blows through it."""
    bad_p99 = 30.0 * tradeoff.P99_PROTECTION_FACTOR * 2.0
    assert _check(_fake_payload(bursty_p99=30.0,
                                bursty_tight_p99=bad_p99)) == [
        "slo/bursty/sf/rate_0.05: windowed p99 72.00 exceeds 1.2x "
        "bursty/baseline (36.00)"]


def test_failed_bursty_baseline_is_the_one_problem_reported():
    """A *failed* bursty baseline disables the bursty gates rather than
    tripping them: the failure is the one problem reported.  (A payload
    *without* the bursty rows fails by name, above.)"""
    payload = _fake_payload(bursty_tight_p99=10_000.0)
    payload["suites"]["slo"]["bursty/baseline"] = {
        "ok": False, "error": "ValueError: boom"}
    assert _check(payload) == [
        "slo/bursty/baseline: failed: ValueError: boom"]


def test_check_payload_flags_drift_against_reference():
    reference = _fake_payload()
    payload = _fake_payload()
    row = payload["suites"]["slo"]["tradeoff/nsf/rate_0.05"]
    row["build_time"] += 1.0
    row["latency"]["p99"] = math.nextafter(row["latency"]["p99"], 0.0)
    assert _check(payload, reference) == [
        "slo/tradeoff/nsf/rate_0.05/build_time: 2700.0 → 2701.0",
        "slo/tradeoff/nsf/rate_0.05/latency/p99: 20.0 → "
        "19.999999999999996"]


def test_check_payload_reports_failed_scenarios():
    payload = _fake_payload()
    payload["suites"]["slo"]["tradeoff/offline/rate_0.1"] = {
        "ok": False, "error": "ValueError: boom"}
    assert _check(payload) == [
        "slo/tradeoff/offline/rate_0.1: failed: ValueError: boom"]


def test_rate_label_is_stable():
    assert tradeoff.rate_label(None) == "none"
    assert tradeoff.rate_label(0.05) == "0.05"
    assert tradeoff.rate_label(0.4) == "0.4"


# -- one real (reduced) traffic run ------------------------------------------


def test_run_traffic_emits_a_complete_scenario(monkeypatch):
    small = dict(tradeoff.PARAMS)
    small.update(rows=60, operations=30, key_space=400)
    monkeypatch.setattr(tradeoff, "PARAMS", small)
    baseline = tradeoff._run_traffic(None, None)
    assert "build_time" not in baseline
    assert baseline["latency"]["ops"] > 0
    scenario = tradeoff._run_traffic("sf", 1.0)
    assert scenario["build_time"] > 0
    assert scenario["params"]["builder"] == "sf"
    assert scenario["params"]["build_rate_limit"] == 1.0
    assert scenario["window"][1] > scenario["window"][0]
    assert scenario["counters"].get("build.throttle_charges", 0) > 0
    assert scenario["latency"]["ops"] > 0


# -- analyzer CLI ------------------------------------------------------------


def test_slo_cli_round_trip(tmp_path, capsys):
    from repro.obs import TraceRecorder
    from repro.sim import Simulator

    recorder = TraceRecorder()
    sim = Simulator()
    recorder.bind(sim)

    def traffic():
        for latency in (1.0, 2.0, 3.0, 4.0):
            span = recorder.begin_span("op", op="read", id=int(latency))
            yield __import__("repro.sim", fromlist=["Delay"]).Delay(latency)
            recorder.end_span(span, outcome="committed")

    sim.spawn(traffic(), name="traffic")
    sim.run()
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    assert slo_main([str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ops"] == 4
    assert report["p50"] == 2.0 and report["max"] == 4.0
    # window that excludes everything -> clean error, exit 1
    assert slo_main([str(path), "--window", "100", "200"]) == 1
