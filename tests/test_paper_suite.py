"""The ``paper`` bench suite's gates fire: each case alters one field of
the committed baseline's rows and expects :func:`check` to name that
row.  No scenario runs."""

import copy
import json
import pathlib

import pytest

from repro.bench.paper import SUITE
from repro.bench.runner import SCHEMA_VERSION, check

BASELINE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_BASELINE.json"


@pytest.fixture(scope="module")
def payload():
    rows = json.loads(BASELINE.read_text())["suites"]["paper"]
    return {"schema_version": SCHEMA_VERSION, "suites": {"paper": rows}}


def test_the_baseline_rows_pass_every_gate(payload):
    assert sorted(payload["suites"]["paper"]) == sorted(SUITE.rows)
    assert check(payload, [SUITE]) == []


@pytest.mark.parametrize("row, field, value", [
    ("e1/sf/ops0", "ib_log_recs", 1),
    ("e1/sf/ops80", "ib_log_bytes", 10**9),
    ("e2/sf/ops180", "clustering", 0.0),
    ("e3/sf", "quiesce_hold", 1.0),
    ("e3/offline", "longest_stall", 0.0),
    ("e4/sf/rows800", "traversals", 1),
    ("e4/batch64", "ib_log_recs", 10**9),
    ("e5/sort/ckptnone", "keys_redone", 3_999),
    ("e5/merge/ckpt500", "keys_redone", 3_500),
    ("e6/ckptnone", "reinserts_rejected", 0),
    ("e7/sf/unique", "schedules_ok", 29),
    ("e7/sf/nonunique", "sidefile_entries", 0),
    ("e8/k3", "speedup", 0.99),
    ("e8/k2", "pages_scanned_separate", 1),
    ("e9/specialized/ops0", "keys_moved", 1),
    ("e9/normal/ops0", "index_pages", 1),
    ("e10/delete_weight1.5", "tombstones_after", 1),
    ("e11/ops360", "drained", 0),
    ("e11/drain/sorted", "drained_from_sorted_chunk", 0),
    ("e12/prefetch4", "disk_reads", 10**9),
    ("e12/readers8/frames24", "stale_prefetches", 0),
    ("e13/offline", "build_time", 10.0**9),
    ("e13/sf", "clustering", 0.0),
    ("e14/ops0", "sidefile_drained", 1),
    ("e15/sf/copy_before", "outcome", "index recovered"),
    ("e19/batch16", "drain_window", 10.0**9),
])
def test_one_altered_field_fails_the_gate_of_its_row(payload, row, field,
                                                     value):
    altered = copy.deepcopy(payload)
    assert field in altered["suites"]["paper"][row]
    altered["suites"]["paper"][row][field] = value
    problems = check(altered, [SUITE])
    assert any(problem.startswith(f"paper/{row}: ")
               for problem in problems), problems
