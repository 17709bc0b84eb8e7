"""Replication cluster: ship/apply mirrors the primary's physical
history, read routing edge cases (zero replicas, staleness eviction
with hysteresis, index-aware range routing), divergent per-replica
builds end to end, and tamper tests proving the cross-replica oracle
actually has teeth."""

import pytest

from repro.bench.runner import check
from repro.cluster import Cluster, check_cluster, heap_state, physical_fold
from repro.cluster.bench import SUITE
from repro.cluster.scenario import (
    SCENARIO_CONFIG,
    TABLE,
    build_scenario,
    run_scenario,
    start_divergent_builds,
)
from repro.core.descriptor import IndexState
from repro.sim.kernel import Delay
from repro.storage.page import Record
from repro.storage.rid import rid_slot
from repro.verify.consistency import ConsistencyError

SMALL = dict(replicas=1, records=40, operations=30, rate=1.0, seed=2)


# -- ship + apply ------------------------------------------------------------


def test_ship_apply_mirrors_primary_history():
    cluster, driver, summary, _ = run_scenario(
        replicas=2, records=40, operations=30, rate=1.0, seed=1,
        builds=False)
    assert summary["ok"]
    assert cluster.metrics.get("cluster.batches_shipped") > 0
    primary_heap = heap_state(cluster.primary.system)[TABLE]
    assert primary_heap  # preload survived the traffic mix
    for node in cluster.replicas():
        assert heap_state(node.system)[TABLE] == primary_heap
        assert node.system.metrics.get("cluster.batches_applied") > 0
        # Exactly-once: the committed floor equals the shipped position.
        assert node.subscription.lag() == 0


def test_replica_self_consistency_is_the_fold_of_its_own_log():
    cluster, driver, summary, _ = run_scenario(builds=False, **SMALL)
    node = cluster.replicas()[0]
    node.system.log.flush()
    own = physical_fold(node.system.log, [TABLE])
    assert own[TABLE] == heap_state(node.system)[TABLE]


# -- routing edge cases ------------------------------------------------------


class _StubSub:
    def __init__(self, lag=0):
        self.lag_value = lag
        self.stopped = False
        self.proc = object()

    def lag(self):
        return self.lag_value


class _StubDescriptor:
    def __init__(self, column, state):
        self.key_columns = (column,)
        self.state = state


class _StubTable:
    def __init__(self, indexes=()):
        self.indexes = list(indexes)


class _StubSystem:
    def __init__(self, tables):
        self.tables = tables


class _StubNode:
    role = "replica"
    down = False
    recovering = False

    def __init__(self, name, lag=0, indexes=()):
        self.name = name
        self.subscription = _StubSub(lag)
        self.system = _StubSystem({TABLE: _StubTable(indexes)})


def test_router_routes_to_primary_with_zero_replicas():
    cluster = Cluster(SCENARIO_CONFIG)
    cluster.primary.system.create_table(TABLE, ("k", "v"))
    assert cluster.router.route_point() is cluster.primary
    assert cluster.router.route_range(TABLE, "k") is cluster.primary
    assert cluster.metrics.get("cluster.router.to_primary") == 2
    assert cluster.metrics.get("cluster.router.to_replica") == 0


def test_router_evicts_all_lagging_replicas_with_hysteresis():
    cluster = Cluster(SCENARIO_CONFIG, staleness_bound=100.0)
    one = _StubNode("node1", lag=200)
    two = _StubNode("node2", lag=150)
    cluster.nodes.update({"node1": one, "node2": two})

    # Every replica is past the bound: reads fall back to the primary.
    assert cluster.router.route_point() is cluster.primary
    assert cluster.metrics.get("cluster.router.evictions") == 2

    # Hysteresis: lag under the bound but over resume_fraction * bound
    # does not readmit -- a replica hovering at the edge must not flap.
    one.subscription.lag_value = 60
    assert cluster.router.route_point() is cluster.primary
    assert cluster.metrics.get("cluster.router.readmits") == 0

    one.subscription.lag_value = 50  # at the resume threshold
    assert cluster.router.route_point() is one
    assert cluster.metrics.get("cluster.router.readmits") == 1
    assert cluster.metrics.get("cluster.router.to_replica") == 1


def test_router_skips_down_recovering_and_stopped_replicas():
    cluster = Cluster(SCENARIO_CONFIG)
    node = _StubNode("node1")
    cluster.nodes["node1"] = node
    assert cluster.router.route_point() is node
    node.subscription.stopped = True
    assert cluster.router.route_point() is cluster.primary
    node.subscription.stopped = False
    node.recovering = True
    assert cluster.router.route_point() is cluster.primary
    node.recovering = False
    node.down = True
    assert cluster.router.route_point() is cluster.primary


def test_router_spreads_point_reads_least_picked_first():
    cluster = Cluster(SCENARIO_CONFIG)
    cluster.nodes["node1"] = _StubNode("node1")
    cluster.nodes["node2"] = _StubNode("node2")
    picks = [cluster.router.route_point().name for _ in range(4)]
    assert picks.count("node1") == 2
    assert picks.count("node2") == 2


def test_route_range_prefers_replica_with_available_index():
    cluster = Cluster(SCENARIO_CONFIG)
    one = _StubNode(
        "node1", lag=5,
        indexes=[_StubDescriptor("k", IndexState.AVAILABLE)])
    two = _StubNode(
        "node2", lag=1,
        indexes=[_StubDescriptor("a", IndexState.BUILDING),
                 _StubDescriptor("b", IndexState.AVAILABLE)])
    cluster.nodes.update({"node1": one, "node2": two})

    assert cluster.router.route_range(TABLE, "k") is one
    assert cluster.router.route_range(TABLE, "b") is two
    # Still BUILDING does not count as an access path.
    assert cluster.router.route_range(TABLE, "a") is cluster.primary
    # Nobody indexes "tag": primary serves it.
    assert cluster.router.route_range(TABLE, "tag") is cluster.primary

    # A tie on index availability is broken by apply lag.
    two.system.tables[TABLE].indexes.append(
        _StubDescriptor("k", IndexState.AVAILABLE))
    assert cluster.router.route_range(TABLE, "k") is two


# -- divergent builds end to end ---------------------------------------------


def test_divergent_builds_flip_available_and_serve_routed_ranges():
    cluster, driver, summary, _ = run_scenario(
        replicas=2, records=80, operations=120, rate=0.8, seed=3)
    assert summary["ok"]
    leading = set()
    for node in cluster.replicas():
        for _mode, _table, specs, _options in node.planned_builds:
            for spec in specs:
                descriptor = node.system.indexes[spec.name]
                assert descriptor.state is IndexState.AVAILABLE
                leading.add(descriptor.key_columns[0])
    # The whole point of divergence: each replica indexes its own slice.
    assert leading == {"k", "a"}
    assert cluster.metrics.get("cluster.router.to_replica") > 0
    assert cluster.metrics.get("cluster.range_via_index") > 0


# -- mid-run consistency -----------------------------------------------------


def test_midrun_replica_matches_primary_history_at_its_position():
    """Probe the at-L invariant *while traffic and a build run*: every
    time the replica is caught up (no apply batch can be in flight at
    lag 0), its heap must equal the primary's physical history folded to
    its subscription position."""
    cluster, driver = build_scenario(replicas=1, records=50,
                                     operations=80, rate=1.0, seed=7)
    node = cluster.replicas()[0]
    snapshots = []

    def probe():
        while not cluster.settled:
            yield Delay(7.0)
            sub = node.subscription
            if sub is None or sub.stopped or sub.lag() != 0:
                continue
            expected = physical_fold(cluster.primary.system.log, [TABLE],
                                     upto_lsn=sub.position)
            snapshots.append((cluster.sim.now,
                              expected[TABLE]
                              == heap_state(node.system)[TABLE]))

    cluster.spawn(probe(), name="probe")
    driver.spawn()
    start_divergent_builds(cluster)
    cluster.settle(driver)
    cluster.run(until=20_000.0)
    assert cluster.settled
    cluster.run()
    assert check_cluster(cluster, driver)["ok"]
    assert snapshots, "probe never caught the replica at lag 0"
    assert all(ok for _time, ok in snapshots)


# -- the oracle has teeth ----------------------------------------------------


def _resident_data_page(system, table):
    """A buffer-resident page of ``table`` holding at least one record."""
    for page_no in range(table.page_count):
        page_id = table.page_id(page_no)
        for frame in system.buffer.resident_pages():
            if frame.page_id == page_id and frame.live_count:
                return frame
    raise AssertionError("no resident data page with live records")


def test_oracle_detects_lost_operations_and_heap_tamper():
    cluster, driver, summary, _ = run_scenario(builds=False, **SMALL)
    assert summary["ok"]

    # Conservation: an operation vanishing from the timeline is caught.
    lost = driver.op_timeline.pop()
    with pytest.raises(ConsistencyError, match="scheduled"):
        check_cluster(cluster, driver)
    driver.op_timeline.append(lost)
    assert check_cluster(cluster, driver)["ok"]

    # Replication: a replica record silently diverging is caught.
    node = cluster.replicas()[0]
    page = _resident_data_page(node.system, node.system.tables[TABLE])
    rid, record = page.live_records()[0]
    page.put(rid_slot(rid), Record(("tampered",) * len(record.values)))
    with pytest.raises(ConsistencyError, match="diverges"):
        check_cluster(cluster, driver)


def test_oracle_detects_index_tamper():
    cluster, driver = build_scenario(replicas=1, records=40,
                                     operations=40, rate=1.0, seed=4)
    driver.spawn()
    start_divergent_builds(cluster)
    cluster.settle(driver)
    cluster.run(until=20_000.0)
    assert cluster.settled
    cluster.run()
    assert check_cluster(cluster, driver)["ok"]

    tree = cluster.replicas()[0].system.indexes["r1_k"].tree
    for page in tree.pages.values():
        entries = getattr(page, "entries", None)
        if entries is not None and len(entries) >= 2:
            entries[0], entries[1] = entries[1], entries[0]
            break
    with pytest.raises(ConsistencyError, match="index audit"):
        check_cluster(cluster, driver)


# -- the bench suite's self-gates, on synthetic rows -------------------------


def _bench_payload():
    """Every row the suite enumerates, shaped to pass every gate."""
    def latency(range_p99):
        return {"p99": range_p99, "by_op": {"range": {"p99": range_p99}}}

    return {"schema_version": 1, "suites": {"cluster": {
        "baseline/no_replicas": {
            "ok": True, "latency": latency(9000.0),
            "counters": {"cluster.router.to_primary": 240}},
        "cluster/divergent": {
            "ok": True, "latency": latency(4000.0),
            "counters": {"cluster.router.to_replica": 90,
                         "cluster.range_via_index": 30},
            "advisor": {"node1": {"picks": [["k"]]},
                        "node2": {"picks": [["a"], ["b"]]}},
            "post_flip": {"range_ops": 12, "range_p99": 300.0}},
        "cluster/failover": {
            "ok": True, "latency": latency(900.0),
            "counters": {"cluster.failovers": 1,
                         "cluster.driver_rebinds": 1},
            "failover": {"committed_after": 80}},
    }}}


@pytest.mark.parametrize("row,path,value,problem", [
    ("baseline/no_replicas", ("counters", "cluster.router.to_replica"), 1,
     "cluster/baseline/no_replicas: routed reads to a replica"),
    ("cluster/divergent", ("counters", "cluster.router.to_replica"), 0,
     "cluster/cluster/divergent: no reads were routed to replicas"),
    ("cluster/divergent", ("counters", "cluster.range_via_index"), 0,
     "cluster/cluster/divergent: no range read went via a replica index"),
    ("cluster/divergent", ("advisor", "node2", "picks"), [["k", "a"]],
     "cluster/cluster/divergent: replicas did not diverge"),
    ("cluster/divergent", ("post_flip", "range_ops"), 4,
     "cluster/cluster/divergent: only 4 committed range reads"),
    ("cluster/divergent", ("post_flip", "range_p99"), 9000.0,
     "cluster/cluster/divergent: post-flip routed range p99 9000.0 not "
     "below"),
    ("cluster/failover", ("counters", "cluster.failovers"), 2,
     "cluster/cluster/failover: expected exactly 1 failover, got 2"),
    ("cluster/failover", ("counters", "cluster.driver_rebinds"), 0,
     "cluster/cluster/failover: traffic driver did not rebind"),
    ("cluster/failover", ("failover", "committed_after"), 0,
     "cluster/cluster/failover: no operation committed after"),
], ids=["baseline-routed", "not-routed", "no-index-reads", "no-divergence",
        "few-post-flip-ranges", "range-p99", "failovers", "rebind",
        "commits-after"])
def test_bench_gates_trip_by_row_name(row, path, value, problem):
    payload = _bench_payload()
    assert sorted(payload["suites"]["cluster"]) == sorted(SUITE.rows)
    assert check(payload, [SUITE]) == []
    target = payload["suites"]["cluster"][row]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    problems = check(payload, [SUITE])
    assert len(problems) == 1 and problems[0].startswith(problem), problems
