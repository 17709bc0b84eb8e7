"""Tests for the wall-clock perf-regression suite (repro.bench.perf).

Three guards:

* the JSON payload is schema-stable (round-trips, validates, and the
  committed ``BENCH_PR10.json`` baseline still parses and clears the
  acceptance floor);
* the benchmark scenarios are seed-deterministic on the simulated
  clock, so wall-clock comparisons measure code, not workload drift;
* the crash-sweep still discovers the hot-path fault sites -- the
  zero-cost ``fault_point`` rework must not silently drop sites from
  the sweep's census.
"""

import copy
import json
import pathlib

import pytest

from repro.bench.perf import (
    MIN_IB_SPEEDUP,
    MIN_PSF_SCAN_SPEEDUP,
    SCHEMA_VERSION,
    _ib_insert_run,
    _sorted_keys,
    check_payload,
    find_scenario,
    micro_ib_insert,
    run_suite,
    validate_payload,
)
from repro.btree.tree import BTree
from repro.sweep import Scenario, discover

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def smoke_payload():
    return run_suite("smoke")


# -- schema ------------------------------------------------------------------


def test_smoke_payload_round_trips_and_validates(smoke_payload):
    wire = json.dumps(smoke_payload, sort_keys=True)
    decoded = json.loads(wire)
    assert decoded == smoke_payload
    assert validate_payload(decoded) == []
    assert decoded["schema_version"] == SCHEMA_VERSION
    assert decoded["mode"] == "smoke"


def test_every_smoke_scenario_succeeds(smoke_payload):
    failures = [(s["name"], s.get("error"))
                for s in smoke_payload["scenarios"] if not s["ok"]]
    assert failures == []


def test_committed_baseline_validates_and_clears_floor():
    baseline = json.loads((REPO_ROOT / "BENCH_PR10.json").read_text())
    assert validate_payload(baseline) == []
    ib = find_scenario(baseline, "micro/ib_insert_batch")
    assert ib["ok"]
    assert ib["speedup"] >= MIN_IB_SPEEDUP


def test_check_payload_flags_regressions(smoke_payload):
    # Pin the measured (wall-clock, so noisy) ratio to a stable value:
    # these assertions test the gate logic, not the measurement.
    clean = copy.deepcopy(smoke_payload)
    find_scenario(clean, "micro/ib_insert_batch")["speedup"] = 2.0
    assert check_payload(clean, clean) == []
    # A failed scenario must be reported ...
    broken = copy.deepcopy(clean)
    broken["scenarios"][0]["ok"] = False
    broken["scenarios"][0]["error"] = "boom"
    assert any("boom" in p for p in check_payload(broken, None))
    # ... and so must a speedup collapse against the reference ratio.
    slow = copy.deepcopy(clean)
    find_scenario(slow, "micro/ib_insert_batch")["speedup"] = 0.5
    assert any("speedup" in p for p in check_payload(slow, clean))


def test_committed_baseline_shows_parallel_speedup():
    baseline = json.loads((REPO_ROOT / "BENCH_PR10.json").read_text())
    assert validate_payload(baseline) == []
    sweep = find_scenario(baseline, "parallel_sf/p_sweep")
    assert sweep is not None and sweep["ok"]
    assert sweep["speedup_scan_sort"]["4"] >= MIN_PSF_SCAN_SPEEDUP
    for partitions in ("1", "2", "4", "8"):
        scenario = find_scenario(baseline, f"parallel_sf/p{partitions}")
        assert scenario is not None and scenario["ok"]
        assert scenario["partition_skew"]["pages_scanned"]["per_shard"]


def test_parallel_smoke_scenarios_report_sweep(smoke_payload):
    sweep = find_scenario(smoke_payload, "parallel_sf/p_sweep")
    assert sweep is not None and sweep["ok"]
    assert sweep["kind"] == "summary"
    assert sweep["speedup_scan_sort"]["1"] == pytest.approx(1.0)
    assert sweep["speedup_scan_sort"]["2"] > 1.5
    for partitions in ("1", "2"):
        scenario = find_scenario(smoke_payload,
                                 f"parallel_sf/p{partitions}")
        assert scenario["counters"]["psf.scan_workers"] == int(partitions)


def test_check_payload_flags_parallel_speedup_collapse(smoke_payload):
    clean = copy.deepcopy(smoke_payload)
    find_scenario(clean, "micro/ib_insert_batch")["speedup"] = 2.0
    sweep = find_scenario(clean, "parallel_sf/p_sweep")
    # the smoke sweep stops at P=2, so the P=4 gate must stay quiet ...
    assert check_payload(clean, clean) == []
    # ... and fire once a (synthesized) P=4 ratio drops under the floor
    sweep["speedup_scan_sort"]["4"] = 1.1
    assert any("P=4" in p for p in check_payload(clean, clean))


def test_run_suite_only_filters_and_marks_payload():
    payload = run_suite("smoke", only="parallel_sf")
    names = [s["name"] for s in payload["scenarios"]]
    assert names == ["parallel_sf/p1", "parallel_sf/p2",
                     "parallel_sf/p_sweep"]
    assert payload["only"] == "parallel_sf"
    assert all(s["ok"] for s in payload["scenarios"])


# -- determinism -------------------------------------------------------------


def test_ib_micro_is_seed_deterministic():
    assert _sorted_keys(500, 7) == _sorted_keys(500, 7)
    keys = _sorted_keys(500, 7)
    first = _ib_insert_run(BTree, keys, batch=16, leaf_capacity=8, seed=7)
    second = _ib_insert_run(BTree, keys, batch=16, leaf_capacity=8, seed=7)
    assert first["sim_time"] == second["sim_time"]


def test_ib_micro_speedup_recorded(smoke_payload):
    ib = find_scenario(smoke_payload, "micro/ib_insert_batch")
    assert ib["ok"]
    assert ib["baseline"]["wall_seconds"] > 0
    assert ib["optimized"]["wall_seconds"] > 0
    # Lenient in-test floor (the committed full-mode baseline carries
    # the real ratio); this catches only a wholesale regression, e.g.
    # the optimized path re-growing the O(pages) search per split.
    # Wall-clock on a loaded host can misfire, so take the best of
    # three before declaring a regression.
    best = ib["speedup"]
    for _ in range(2):
        if best > 1.1:
            break
        best = max(best, micro_ib_insert("smoke")["speedup"])
    assert best > 1.1


def test_frontier_micro_speedup_recorded(smoke_payload):
    """The bisect ``shard_of`` must not regress to the linear scan: the
    micro cross-checks both implementations entry-for-entry and records
    their in-process ratio, gated here with the same lenient
    best-of-three floor as the IB micro (wall-clock noise tolerance)."""
    from repro.bench.perf import micro_frontier_shard_of

    scenario = find_scenario(smoke_payload, "micro/frontier_shard_of")
    assert scenario["ok"]
    assert scenario["baseline"]["wall_seconds"] > 0
    assert scenario["optimized"]["wall_seconds"] > 0
    best = scenario["speedup"]
    for _ in range(2):
        if best > 1.1:
            break
        best = max(best, micro_frontier_shard_of("smoke")["speedup"])
    assert best > 1.1


# -- crash-sweep census guard ------------------------------------------------


def test_sweep_still_discovers_hot_path_fault_sites():
    """The hoisted fault_point guards are zero-cost when no injector is
    installed; with one installed they must still report every site."""
    config = Scenario(builder="nsf", records=120, operations=40)
    census = discover(config)
    for site in ("build.sort_push", "btree.ib_insert", "btree.split",
                 "nsf.insert_batch", "wal.force.before",
                 "build.checkpoint.before", "kernel.step.builder"):
        assert census.get(site, 0) > 0, f"site {site} vanished from sweep"

    config = Scenario(builder="sf", records=120, operations=40)
    census = discover(config)
    for site in ("sidefile.append", "sidefile.force", "btree.drain_apply",
                 "sf.load_batch", "wal.force.before"):
        assert census.get(site, 0) > 0, f"site {site} vanished from sweep"
