"""Replication-cluster bench (suite ``cluster`` of
``python -m repro.bench``).

Under one fixed open-loop traffic mix,

* ``baseline/no_replicas`` -- a bare primary, no replicas, no indexes:
  every range read is a primary table scan (the mix's worst case);
* ``cluster/divergent`` -- two replicas apply the shipped WAL while the
  advisor (:func:`repro.cluster.cluster.plan_divergent_indexes`) gives
  each a *different* slice of the range-column mix to specialize for;
  each replica builds its picks online without quiescing apply, and the
  router starts sending each range query to the replica whose index
  serves it.  The headline number: routed range p99 *after* every
  replica's indexes flip AVAILABLE, vs the baseline's range p99;
* ``cluster/failover`` -- the same fleet with a scripted mid-run
  primary failure: the most-caught-up replica is promoted, traffic
  rebinds, and commits keep flowing after the failover instant.

Every scenario must also pass the cross-replica consistency oracle --
the bench publishes no number the oracle has not stood behind.
Self-gates (:func:`gates`): reads are routed to replicas and served by
their indexes, the replicas' picks diverge, the post-flip routed range
p99 beats the scan-only baseline's, and the failover row shows exactly
one failover, one driver rebind and commits after the cut.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.bench.runner import Suite
from repro.cluster.cluster import plan_divergent_indexes
from repro.cluster.oracle import check_cluster
from repro.cluster.scenario import (
    BUILD_OPTIONS,
    SCENARIO_CONFIG,
    TABLE,
    build_scenario,
    run_scenario,
    scenario_spec,
)
from repro.obs.trace import Trace
from repro.sim.kernel import Delay
from repro.slo.analyzer import latency_report

#: one fixed traffic/cluster shape for every scenario.  The table is
#: deliberately larger than the buffer pool and each node's disk serves
#: one I/O at a time, so an unindexed range read is a genuinely
#: expensive scan -- the regime the paper's indexes exist for.
PARAMS = {
    "seed": 11,
    "records": 400,
    "operations": 240,
    "rate": 0.05,
    "replicas": 2,
    "failover_at": 300.0,
    "buffer_frames": 24,
    "disk_channels": 1,
    "advisor_budget_pages": 300,
    "min_post_flip_ranges": 5,
}

#: per-replica slices of the range mix the advisor specializes for
SLICES = {
    "node1": (("k", 2.0),),
    "node2": (("a", 1.5), ("b", 1.0)),
}

COUNTERS = (
    "cluster.batches_shipped",
    "cluster.router.to_primary",
    "cluster.router.to_replica",
    "cluster.range_via_index",
    "cluster.range_via_scan",
    "cluster.failovers",
    "cluster.node_recoveries",
    "cluster.driver_rebinds",
    "cluster.builds_started",
)


def _scenario_kwargs() -> dict:
    config = dataclasses.replace(SCENARIO_CONFIG,
                                 buffer_frames=PARAMS["buffer_frames"],
                                 disk_channels=PARAMS["disk_channels"])
    return dict(records=PARAMS["records"],
                operations=PARAMS["operations"],
                rate=PARAMS["rate"], seed=PARAMS["seed"],
                config=config)


def _counters(cluster) -> dict:
    return {key: cluster.metrics.get(key) for key in COUNTERS
            if cluster.metrics.get(key)}


def _base_row(cluster, summary, shape: str, trace=None) -> dict:
    return {
        "params": dict(PARAMS, shape=shape),
        "latency": latency_report(trace or cluster.tracer.events),
        "counters": _counters(cluster),
        "oracle": summary,
        "end_time": cluster.sim.now,
    }


def _run_baseline() -> dict:
    cluster, _driver, summary, _ = run_scenario(
        replicas=0, builds=False, **_scenario_kwargs())
    return _base_row(cluster, summary, "baseline")


def _run_divergent() -> dict:
    cluster, driver = build_scenario(
        replicas=PARAMS["replicas"], **_scenario_kwargs())
    base_spec = scenario_spec(PARAMS["operations"], PARAMS["rate"])
    slices = {name: dataclasses.replace(base_spec, range_columns=cols)
              for name, cols in SLICES.items()}
    plans = plan_divergent_indexes(cluster, TABLE, slices,
                                   PARAMS["advisor_budget_pages"])
    advisor_row: dict[str, Any] = {}
    for name, (report, specs) in sorted(plans.items()):
        if not specs:
            raise AssertionError(f"advisor picked nothing for {name}")
        mode = "multi" if len(specs) > 1 else "sf"
        cluster.start_build(cluster.nodes[name], mode, specs,
                            options=BUILD_OPTIONS, table_name=TABLE)
        advisor_row[name] = {
            "picks": [list(pick.key_columns) for pick in report.picks],
            "initial_cost": report.initial_cost,
            "final_cost": report.final_cost,
            "storage_used": report.storage_used,
        }
    driver.spawn()

    available_at: dict[str, float] = {}

    def flip_monitor():
        waiting = set(SLICES)
        while waiting:
            for name in sorted(waiting):
                if cluster.nodes[name].builds_done():
                    available_at[name] = cluster.sim.now
            waiting -= set(available_at)
            yield Delay(2.0)

    cluster.spawn(flip_monitor(), name="flip-monitor")
    cluster.settle(driver)
    cluster.run(until=20_000.0)
    assert cluster.settled, "divergent scenario did not settle"
    cluster.run()
    summary = check_cluster(cluster, driver)

    trace = Trace(cluster.tracer.events)  # read once, reported twice
    row = _base_row(cluster, summary, "divergent", trace)
    row["advisor"] = advisor_row
    row["available_at"] = dict(sorted(available_at.items()))
    flip_done = max(available_at.values())
    post = latency_report(trace, window=(flip_done, cluster.sim.now))
    ranges = post["by_op"].get("range", {})
    row["post_flip"] = {
        "window": [flip_done, cluster.sim.now],
        "range_ops": ranges.get("ops", 0),
        "range_p99": ranges.get("p99"),
        "p99": post["p99"],
    }
    return row


def _run_failover() -> dict:
    cut = PARAMS["failover_at"]
    cluster, driver, summary, _ = run_scenario(
        replicas=PARAMS["replicas"], failover_at=cut, **_scenario_kwargs())
    row = _base_row(cluster, summary, "failover")
    row["failover"] = {
        "at": cut,
        "new_primary": cluster.primary.name,
        "committed_after": sum(
            1 for record in driver.op_timeline
            if record.outcome == "committed" and record.time > cut),
        "ops_node_down": cluster.metrics.get("cluster.ops_node_down"),
    }
    return row


def gates(rows: dict[str, dict]) -> list[str]:
    """The suite's own acceptance gates."""
    problems: list[str] = []
    baseline = rows["baseline/no_replicas"]
    if baseline["counters"].get("cluster.router.to_replica"):
        problems.append("baseline/no_replicas: routed reads to a replica "
                        "with zero replicas attached")

    divergent = rows["cluster/divergent"]
    counters = divergent["counters"]
    post = divergent["post_flip"]
    if not counters.get("cluster.router.to_replica"):
        problems.append("cluster/divergent: no reads were routed to "
                        "replicas")
    if not counters.get("cluster.range_via_index"):
        problems.append("cluster/divergent: no range read went via a "
                        "replica index")
    leading = {tuple(pick[:1]) for node in divergent["advisor"].values()
               for pick in node["picks"]}
    if len(leading) < 2:
        problems.append(
            f"cluster/divergent: replicas did not diverge -- leading "
            f"columns {sorted(leading)}")
    if post["range_ops"] < PARAMS["min_post_flip_ranges"]:
        problems.append(
            f"cluster/divergent: only {post['range_ops']} committed "
            f"range reads after the last flip (need "
            f"{PARAMS['min_post_flip_ranges']})")
    base_p99 = baseline["latency"]["by_op"]["range"]["p99"]
    if not post["range_p99"] < base_p99:
        problems.append(
            f"cluster/divergent: post-flip routed range p99 "
            f"{post['range_p99']:.1f} not below the scan-only "
            f"baseline's {base_p99:.1f}")

    failover = rows["cluster/failover"]
    counters = failover["counters"]
    if counters.get("cluster.failovers") != 1:
        problems.append(
            f"cluster/failover: expected exactly 1 failover, got "
            f"{counters.get('cluster.failovers')}")
    if counters.get("cluster.driver_rebinds") != 1:
        problems.append("cluster/failover: traffic driver did not rebind")
    if not failover["failover"]["committed_after"]:
        problems.append("cluster/failover: no operation committed after "
                        "the primary died")
    return problems


SUITE = Suite("cluster", {
    "baseline/no_replicas": _run_baseline,
    "cluster/divergent": _run_divergent,
    "cluster/failover": _run_failover,
}, gates)
