"""Tests of the benchmark's own machinery.  Run explicitly (the
directory is outside tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
from load import (  # noqa: E402
    BLOCK, BLOCK_OPS, DELETE, INSERT, LOOKUP, RANGE, READ, UPDATE,
    LiveRids, column_a, make_rows, make_schedule)
from rounds import COUNTERS, BenchError, check_durability  # noqa: E402
from timing import percentile, ss_min  # noqa: E402
from workloads import BY_NAME, WORKLOADS, smoke  # noqa: E402

SEGMENTS = ((800, 0.2), (400, 2.0))


# -- inputs -----------------------------------------------------------------


def test_schedule_is_a_pure_function_of_the_seed():
    assert make_schedule(7, SEGMENTS, 1000) == make_schedule(7, SEGMENTS,
                                                             1000)
    assert make_schedule(7, SEGMENTS, 1000) != make_schedule(8, SEGMENTS,
                                                             1000)
    assert make_rows(7, 50) == make_rows(7, 50)
    assert make_rows(7, 50) != make_rows(8, 50)


def test_schedule_shape():
    ops = make_schedule(3, SEGMENTS, 1000)
    assert len(ops) == 1200
    dues = [op.due for op in ops]
    assert dues == sorted(dues)
    # 800 operations at 0.2/unit last 4000 units, 400 at 2.0/unit 200 more
    assert 3900 < dues[799] <= 4000 < dues[800]
    assert dues[-1] <= 4200
    # every block holds exactly BLOCK, in a different order
    for start in range(0, 1200, BLOCK_OPS):
        shapes = Counter((op.kind, op.rollback, op.keep_key, op.read_path)
                         for op in ops[start:start + BLOCK_OPS])
        assert shapes == dict(BLOCK)
    assert [op.kind for op in ops[:400]] != [op.kind for op in ops[400:800]]
    assert all(0 <= op.key < 1000 and 0 <= op.victim < 1 for op in ops)
    assert 60 < sum(op.hot for op in ops) < 180
    with pytest.raises(ValueError):
        make_schedule(3, ((150, 1.0),), 1000)


def test_block_holds_the_issue_mix():
    assert BLOCK_OPS == 400

    def share(select):
        return sum(count for shape, count in BLOCK if select(*shape))

    assert share(lambda kind, *_: kind == READ) == 0.40 * BLOCK_OPS
    assert share(lambda kind, *_: kind == INSERT) == 0.20 * BLOCK_OPS
    assert share(lambda kind, *_: kind == UPDATE) == 0.25 * BLOCK_OPS
    assert share(lambda kind, *_: kind == DELETE) == 0.15 * BLOCK_OPS
    writes = share(lambda kind, *_: kind != READ)
    assert share(lambda _kind, rollback, *_: rollback) == 0.05 * writes
    assert not share(lambda kind, rollback, *_: kind == READ and rollback)
    updates = share(lambda kind, *_: kind == UPDATE)
    assert share(lambda kind, _rb, keep, _path: kind == UPDATE
                 and not keep) == 0.80 * updates
    reads = share(lambda kind, *_: kind == READ)
    assert share(lambda *shape: shape[3] == LOOKUP) == 0.5 * reads
    assert share(lambda *shape: shape[3] == RANGE) == 0.1 * reads


def test_rows_follow_the_column_rule():
    rows = make_rows(5, 400)
    assert [p for _k, _a, p in rows] == list(range(400))
    assert all(0 <= k < 4000 and a == column_a(k) for k, a, _p in rows)


# -- victim sampling --------------------------------------------------------


def test_live_rids_claim_swaps_the_last_entry_in():
    live = LiveRids()
    for number in range(5):
        live.add(("rid", number), 10 * number)
    assert live.peek(0.5) == (("rid", 2), 20)
    assert live.claim(0.2) == (("rid", 1), 10)
    assert live.rids == [("rid", 0), ("rid", 4), ("rid", 2), ("rid", 3)]
    assert live.keys == [0, 40, 20, 30]
    assert live.claim(0.99) == (("rid", 3), 30)
    assert len(live) == 3


def test_victim_sampling_cost_does_not_grow_with_the_table():
    def claims_per_second(size):
        live = LiveRids()
        for number in range(size):
            live.add(number, number)
        draws = [(index * 0.6180339887) % 1.0 for index in range(2000)]
        best = float("inf")
        for _attempt in range(5):
            start = time.perf_counter()
            for draw in draws:
                live.add(*live.claim(draw))
            best = min(best, time.perf_counter() - start)
        return len(draws) / best

    small, large = claims_per_second(1_000), claims_per_second(400_000)
    # O(table) sampling would be 400 times slower on the large table
    assert large > small / 5


# -- estimators -------------------------------------------------------------


def test_ss_min_takes_each_slice_from_its_fastest_round():
    rounds = [[1.0, 5.0, 2.0],
              [3.0, 1.0, 2.5],
              [2.0, 4.0, 0.5]]
    assert ss_min(rounds) == 1.0 + 1.0 + 0.5
    assert ss_min([[0.25, 0.5]]) == 0.75
    with pytest.raises(ValueError):
        ss_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        ss_min([])


def test_percentile_band_means():
    one_to_ten = list(range(10, 0, -1))
    # a band narrower than one rank is the nearest-rank percentile
    assert percentile(one_to_ten, 50, 0) == 5
    assert percentile(one_to_ten, 99, 0) == 10
    assert percentile([7.0], 99) == 7.0
    # ranks 985..995 of 1..1000
    assert percentile(range(1, 1001), 99) == 990
    # a staircase with its step at the 99th percentile: 990 ones then
    # ten fives; ranks 985..995 hold six ones and five fives
    stairs = [1.0] * 990 + [5.0] * 10
    assert percentile(stairs, 99) == pytest.approx((6 * 1 + 5 * 5) / 11)
    assert percentile(stairs, 50, 5.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- gates ------------------------------------------------------------------


def test_durability_check():
    acknowledged = {1: ("a",), 2: ("b",)}
    check_durability(acknowledged, set(), dict(acknowledged))
    with pytest.raises(BenchError, match="acknowledged row 2"):
        check_durability(acknowledged, set(), {1: ("a",)})
    with pytest.raises(BenchError, match="acknowledged row 2"):
        check_durability(acknowledged, set(), {1: ("a",), 2: ("x",)})
    with pytest.raises(BenchError, match="never acknowledged"):
        check_durability(acknowledged, set(),
                         {1: ("a",), 2: ("b",), 3: ("c",)})
    # a commit in flight at the crash may have gone either way
    check_durability(acknowledged, {2, 3}, {1: ("a",), 3: ("c",)})


def test_layer_of():
    assert layers.layer_of("/x/src/repro/btree/tree.py") == "btree"
    assert layers.layer_of("/x/src/repro/system.py") == "core"
    assert layers.layer_of("/x/src/repro/faultinject/sites.py") == "other"
    assert layers.layer_of(os.path.join(HERE, "load.py")) == "bench"
    assert layers.layer_of("/usr/lib/python3/heapq.py") == "other"


END_TO_END = [
    "setup_s", "build_keys_per_s", "serve_ops_per_s", "peak_rss_mb",
    "sim_build_time", "fg_p50_build", "fg_p99_build", "fg_p99_serve",
    "fg_slo_ok_share", "fg_ok_share", "build_wal_bytes_per_key",
    "index_pages_per_kkey"]


def per_layer_names():
    names = []
    for layer in layers.LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    names += ["bench.self_s", "other.self_s", *layers.ENTRIES, *COUNTERS,
              "lock.wait_time", "buffer.hit_ratio", "bench.rounds",
              "bench.slices", "bench.calib_ms", "bench.round_spread",
              "bench.trace_overhead_ratio", "bench.generator_late_max"]
    return names


def test_contract_file_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS]
    assert [m["name"] for m in contract["end_to_end"]] == END_TO_END
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert [m["name"] for m in contract["per_layer"]] == per_layer_names()
    for metric in contract["per_layer"]:
        seconds = metric["name"].endswith("_s")
        assert (metric["unit"] == "s") is seconds, metric
    runs = 4 + 22 * len(contract["workloads"])
    # start-up, input generation and the report come on top
    assert runs * (contract["run_seconds"] + 4) <= 3420


# -- end to end ---------------------------------------------------------------


def run_cli(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_smoke_of_all_four_workloads_emits_every_metric():
    start = time.perf_counter()
    for workload in WORKLOADS:
        for trace, names in (("0", END_TO_END), ("1", per_layer_names())):
            done = run_cli("--workload", workload.name, "--seed", "5",
                           "--seconds", "1", "--trace", trace, "--smoke")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] == sum(
                count for count, _rate in smoke(workload).segments)
            assert list(result["metrics"]) == names
            for name, body in result["metrics"].items():
                assert set(body) == {"value", "unit"}, name
    assert time.perf_counter() - start < 30


def test_smoke_workloads_keep_their_shape():
    for workload in WORKLOADS:
        small = smoke(workload)
        assert small.rows == 2_000 and small.builder == workload.builder
        assert all(count == BLOCK_OPS for count, _rate in small.segments)
    assert smoke(BY_NAME["restart_sf"]).crash_after == 150.0


def test_recovery_counters_only_on_the_restart_workload():
    for name, expect in (("restart_sf", True), ("traffic_sf", False)):
        done = run_cli("--workload", name, "--seed", "2", "--seconds", "1",
                       "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        assert (metrics["recovery.redos"]["value"] > 0) is expect
        assert (metrics["entry.restart_s"]["value"] > 0) is expect


def test_exits_non_zero_without_the_program(tmp_path):
    """The driver also runs the benchmark in a directory that holds only
    BENCHMARK.json and the benchmark's own files."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "bulk_sf", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path,
                   script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_unknown_workload_is_refused():
    done = run_cli("--workload", "nope", "--seed", "1", "--smoke")
    assert done.returncode != 0 and "unknown workload" in done.stderr
