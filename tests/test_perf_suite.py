"""Tests for the simulated-clock build suite (repro.bench.perf).

``payload`` is one live, full-size run of the suite (about three
seconds); the gate tests tamper copies of it.  What they guard:

* every row runs, the payload is plain JSON, and the suite's self-gates
  -- zero-rescan rebuild, scan+sort speedup at P=4 -- hold
  on running code and equal the committed ``BENCH_BASELINE.json``;
* each self-gate trips on a payload that violates it and names the row;
* the rows are seed-deterministic, so an inequality with the baseline is
  a behaviour change, not drift.
"""

import copy
import json
import pathlib

import pytest

from repro.bench.perf import MIN_PSF_SCAN_SPEEDUP, PSF_PARTITIONS, SUITE
from repro.bench.runner import check, dumps, run_suites

BASELINE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_BASELINE.json"


@pytest.fixture(scope="module")
def payload():
    return run_suites([SUITE])


# -- the live run ------------------------------------------------------------


def test_payload_round_trips_through_json_and_passes_the_gates(payload):
    decoded = json.loads(dumps(payload))
    assert decoded == payload
    assert check(decoded, [SUITE]) == []


def test_every_row_runs_and_succeeds(payload):
    rows = payload["suites"]["perf"]
    assert list(rows) == list(SUITE.rows)
    failures = [(name, row.get("error"))
                for name, row in rows.items() if not row["ok"]]
    assert failures == []


def test_one_suite_run_equals_its_suite_of_the_baseline(payload):
    """A one-suite run holds only that suite and is compared with only
    that suite of the four-suite baseline -- which it equals exactly."""
    assert list(payload["suites"]) == ["perf"]
    assert check(payload, [SUITE],
                 json.loads(BASELINE.read_text())) == []


def test_parallel_rows_show_the_scan_sort_speedup_and_shard_counts(payload):
    rows = payload["suites"]["perf"]
    scan_sort = {p: rows[f"parallel_sf/p{p}"]["scan_sort_sim_time"]
                 for p in PSF_PARTITIONS}
    assert scan_sort[1] / scan_sort[2] > 1.5
    assert scan_sort[1] / scan_sort[4] >= MIN_PSF_SCAN_SPEEDUP
    for partitions in PSF_PARTITIONS:
        row = rows[f"parallel_sf/p{partitions}"]
        assert row["counters"]["psf.scan_workers"] == partitions
        assert len(row["partition_skew"]["pages_scanned"]["per_shard"]) \
            == partitions


def test_nsf_row_is_seed_deterministic(payload):
    """A second run of the NSF row (IB's multi-key inserts under the
    scan) reproduces every field of the first."""
    again = SUITE.rows["build/nsf/rows300"]()
    assert {"ok": True, **again} \
        == payload["suites"]["perf"]["build/nsf/rows300"]


# -- the gates, on tampered copies -------------------------------------------


def test_check_payload_flags_regressions(payload):
    # A failed scenario is reported by name and stops the suite's gates.
    broken = copy.deepcopy(payload)
    broken["suites"]["perf"]["build/offline/rows300"] = {
        "ok": False, "error": "ValueError: boom"}
    assert check(broken, [SUITE]) == [
        "perf/build/offline/rows300: failed: ValueError: boom"]
    # A rebuild that went back to the table.
    rescanned = copy.deepcopy(payload)
    rescanned["suites"]["perf"]["rebuild/reuse_runs"][
        "pages_scanned_delta"] = 3
    assert check(rescanned, [SUITE]) == [
        "perf/rebuild/reuse_runs: rescanned 3 table pages instead of "
        "reusing the sealed runs"]
    # Against the baseline the same tampering is also an inequality.
    assert "perf/rebuild/reuse_runs/pages_scanned_delta: 0 → 3" \
        in check(rescanned, [SUITE], payload)


def test_check_payload_flags_parallel_speedup_collapse(payload):
    collapsed = copy.deepcopy(payload)
    rows = collapsed["suites"]["perf"]
    rows["parallel_sf/p4"]["scan_sort_sim_time"] = \
        rows["parallel_sf/p1"]["scan_sort_sim_time"] / 1.1
    assert check(collapsed, [SUITE]) == [
        "perf/parallel_sf/p4: scan+sort speedup 1.10x over P=1 under "
        f"floor {MIN_PSF_SCAN_SPEEDUP:.2f}x"]
