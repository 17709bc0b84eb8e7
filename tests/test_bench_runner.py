"""The one bench runner: the row loop, the payload, the equality gate
and the CLI, on a two-row fake suite and on the cheapest real one."""

import copy
import json
import math
import pathlib

import pytest

from repro.bench.__main__ import SUITES
from repro.bench.runner import Suite, check, dumps, main, run_suites
from repro.metrics import ordered_sum, skew_summary
from repro.slo.analyzer import _quantile_block

BASELINE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_BASELINE.json"


def _fake(gates=lambda rows: [], **extra_rows):
    rows = {"a": lambda: {"time": 0.1 + 0.2, "nested": {"n": [1, 2.5]}},
            "b": lambda: {"counters": {"x.y": 3}}}
    rows.update(extra_rows)
    return Suite("fake", rows, gates)


def test_equal_payload_passes_and_one_ulp_is_named():
    suite = _fake()
    payload = run_suites([suite])
    baseline = json.loads(dumps(payload))
    assert check(payload, [suite], baseline) == []
    ulp_off = math.nextafter(0.1 + 0.2, 1.0)
    moved = copy.deepcopy(baseline)
    moved["suites"]["fake"]["a"]["time"] = ulp_off
    moved["suites"]["fake"]["a"]["nested"]["n"][1] = 2
    moved["suites"]["fake"]["b"]["counters"]["x.y"] = 4
    assert check(payload, [suite], moved) == [
        "fake/a/nested/n[1]: 2 → 2.5",
        f"fake/a/time: {ulp_off!r} → {0.1 + 0.2!r}",
        "fake/b/counters/x.y: 4 → 3",
    ]


def test_missing_and_extra_rows_and_fields_fail_by_name():
    suite = _fake()
    payload = run_suites([suite])
    baseline = json.loads(dumps(payload))
    baseline["suites"]["fake"]["gone"] = {"ok": True}
    del baseline["suites"]["fake"]["b"]
    baseline["suites"]["fake"]["a"]["old_field"] = 1
    assert check(payload, [suite], baseline) == [
        "fake/a/old_field: in the baseline, not in this run",
        "fake/b: in this run, not in the baseline",
        "fake/gone: in the baseline, not in this run",
    ]
    # a row the suite enumerates but the payload lacks
    del payload["suites"]["fake"]["b"]
    assert check(payload, [suite]) == ["fake/b: row missing"]
    # a baseline of another schema is refused outright
    baseline["schema_version"] = 99
    assert "schema_version" in check(payload, [suite], baseline)[0]


def test_raising_scenario_is_recorded_and_fails_before_the_gates():
    def boom():
        raise ValueError("boom")

    def gates(rows):
        raise AssertionError("gates must not see a failed suite")

    suite = _fake(gates, c=boom)
    echoed = []
    payload = run_suites([suite], echo=echoed.append)
    assert payload["suites"]["fake"]["c"] == {
        "ok": False, "error": "ValueError: boom"}
    assert any("FAIL fake/c" in line for line in echoed)
    assert check(payload, [suite]) == ["fake/c: failed: ValueError: boom"]


def test_gate_problems_are_prefixed_with_the_suite():
    suite = _fake(lambda rows: [f"a: time {rows['a']['time']:.1f} too slow"])
    assert check(run_suites([suite]), [suite]) == \
        ["fake/a: time 0.3 too slow"]


def test_cli_exit_codes_and_named_difference(tmp_path, capsys):
    suite = _fake()
    out = tmp_path / "out.json"
    assert main([suite], ["--out", str(out)]) == 0
    assert main([suite], ["fake", "--out", str(out),
                          "--check", str(out)]) == 0
    tampered = json.loads(out.read_text())
    tampered["suites"]["fake"]["b"]["counters"]["x.y"] += 1
    reference = tmp_path / "ref.json"
    reference.write_text(dumps(tampered))
    capsys.readouterr()
    assert main([suite], ["--out", str(out), "--check", str(reference)]) == 1
    assert "FAIL: fake/b/counters/x.y: 4 → 3" in capsys.readouterr().out
    with pytest.raises(SystemExit) as refused:
        main([suite], ["nope", "--out", str(out)])
    assert refused.value.code == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err


def test_row_means_add_in_ieee_order_on_every_interpreter():
    """The builtin ``sum()`` is compensated from CPython 3.12 on (1.0
    here) and plain before (0.0); the means that reach a row must not
    depend on which, or the equality gate fails on one CI leg."""
    cancelling = [1e16, 1.0, -1e16]
    assert ordered_sum(cancelling) == 0.0
    assert ordered_sum(iter([0.1] * 10)) == 0.9999999999999999
    assert skew_summary(cancelling)["mean"] == 0.0
    assert _quantile_block(cancelling)["mean"] == 0.0


def test_multibuild_suite_is_byte_identical_and_equals_the_baseline(
        tmp_path):
    """The cheapest real suite, twice, through the CLI: the two files are
    the same bytes, a one-suite run checks against the four-suite
    baseline, and the committed baseline holds exactly these bytes."""
    first, second = tmp_path / "1.json", tmp_path / "2.json"
    for out in (first, second):
        assert main(SUITES, ["multibuild", "--out", str(out),
                             "--check", str(BASELINE)]) == 0
    assert first.read_bytes() == second.read_bytes()
    committed = json.loads(BASELINE.read_text())
    assert sorted(committed["suites"]) == sorted(s.name for s in SUITES)
    committed["suites"] = {"multibuild": committed["suites"]["multibuild"]}
    assert dumps(committed) == first.read_text()
