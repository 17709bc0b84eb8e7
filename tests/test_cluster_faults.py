"""Cluster fault handling over the canonical sweep scenario: a replica
crash mid-apply resumes from its durable floor, a ship fault escalates
to failover, a candidate crashing mid-promotion is retried, and a dead
ex-primary rejoins the fleet as a fresh replica."""

import pytest

from repro.cluster import check_cluster, heap_state
from repro.cluster.scenario import TABLE, run_scenario
from repro.faultinject.injector import FaultPlan
from repro.sim.kernel import Delay
from repro.sweep import ClusterScenario

#: the exact deterministic recipe the crash sweep proves plan-by-plan
KW = ClusterScenario().scenario_kwargs()


def test_replica_crash_mid_apply_recovers_and_resumes():
    cluster, _driver, summary, injector = run_scenario(
        fault_plan=FaultPlan("cluster.apply", 1), **KW)
    assert injector.fired is not None
    assert summary["ok"]
    assert cluster.metrics.get("cluster.node_kills") >= 1
    assert cluster.metrics.get("cluster.node_recoveries") >= 1
    # Recovery resubscribed the replica and it caught back up.
    for node in cluster.replicas():
        assert not node.down and not node.recovering
        assert node.subscription is not None
        assert node.subscription.lag() == 0


def test_ship_fault_escalates_to_failover():
    cluster, _driver, summary, injector = run_scenario(
        fault_plan=FaultPlan("cluster.ship", 1), **KW)
    assert injector.fired is not None
    assert summary["ok"]
    assert cluster.metrics.get("cluster.failovers") >= 1
    assert cluster.nodes["node0"].role == "failed"
    assert cluster.primary.name != "node0"
    assert cluster.metrics.get("cluster.driver_rebinds") >= 1


def test_promote_crash_is_recovered_and_retried():
    cluster, _driver, summary, injector = run_scenario(
        fault_plan=FaultPlan("cluster.promote", 1), **KW)
    assert injector.fired is not None
    assert summary["ok"]
    # The candidate died mid-promotion, was recovered in place, and the
    # (single) failover still ended with a promoted winner.
    assert cluster.metrics.get("cluster.failovers") == 1
    assert cluster.metrics.get("cluster.promotions") == 1
    assert cluster.metrics.get("cluster.node_recoveries") >= 1
    assert cluster.primary.role == "primary"


def test_scripted_failover_keeps_serving_writes():
    cluster, driver, summary, _injector = run_scenario(**KW)
    assert summary["ok"]
    assert cluster.metrics.get("cluster.failovers") == 1
    assert cluster.metrics.get("cluster.driver_rebinds") == 1
    # Writes kept committing against the promoted primary.
    failover_events = [e for e in cluster.tracer.events
                       if e.get("name") == "cluster.driver_rebound"]
    assert failover_events
    rebound_at = failover_events[0]["t"]
    committed_after = sum(
        1 for record in driver.op_timeline
        if record.outcome == "committed" and record.time > rebound_at)
    assert committed_after > 0


def test_old_primary_rejoins_as_fresh_replica():
    cluster, driver, summary, _injector = run_scenario(**KW)
    assert summary["ok"]
    old = cluster.nodes["node0"]
    assert old.role == "failed"

    node = cluster.rejoin_as_replica("node0")
    assert node.role == "replica"
    assert node.name != "node0"  # a new incarnation, not a revival
    assert cluster.metrics.get("cluster.rejoins") == 1
    with pytest.raises(ValueError):
        cluster.rejoin_as_replica("node0")  # old name is spent

    # Full resync: let the new subscription replay the primary's whole
    # history, then stop it so the simulator drains.
    sub = node.subscription

    def stopper():
        while True:
            yield Delay(5.0)
            cluster.primary.system.log.flush()
            if sub.lag() == 0:
                break
        sub.stop_requested = True

    cluster.spawn(stopper(), name="stop-rejoin")
    cluster.run()
    assert heap_state(node.system)[TABLE] \
        == heap_state(cluster.primary.system)[TABLE]
    # The grown fleet still passes every oracle check.
    assert check_cluster(cluster, driver)["ok"]
