"""The simulated replication cluster: primary, replicas, failover.

A :class:`Cluster` owns one shared :class:`~repro.sim.kernel.Simulator`
that every member :class:`~repro.system.System` runs on -- one clock,
one schedule, many nodes -- plus its own metrics registry (the fault
injector's install target for the ``cluster.*`` sites) and one
:class:`~repro.obs.recorder.TraceRecorder` shared by every node, so a
single trace tells the whole ship/apply/build/failover story.

Division of labour:

* :mod:`repro.cluster.ship` runs replication (one subscription process
  per replica) and *detects* faults;
* this module *repairs* them, always from cluster-resident processes
  (a node-resident process cannot orchestrate its own node's death):

  - :meth:`recover_replica` -- crash the replica, run ARIES-lite
    restart **on the shared clock** (:func:`restart_on`), resume or
    reissue its interrupted index builds, resubscribe from its durable
    floor;
  - :meth:`trigger_failover` -- kill the primary, stop survivors'
    subscriptions, promote the most-caught-up replica (ranked by its
    committed origin floor for the dead primary's records), re-point
    everyone -- including the traffic driver -- at the winner.  The
    ``cluster.promote`` fault site lives inside the promotion loop:
    a candidate that dies mid-promotion is recovered and retried.

Divergent index tuning rides on top: :meth:`start_build` runs any of
the paper's online builders against one replica while that replica
keeps applying the log, and :func:`plan_divergent_indexes` feeds the
advisor a per-replica slice of the query mix to choose each replica's
set.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.cluster.apply import committed_origin_floors
from repro.cluster.node import ClusterNode, NetworkLink
from repro.cluster.router import Router
from repro.cluster.ship import Subscription
from repro.core import build_pre_undo, get_builder, resume_builds
from repro.faultinject.injector import InjectedCrash
from repro.faultinject.sites import fault_point
from repro.metrics import MetricsRegistry
from repro.obs.recorder import TraceRecorder
from repro.recovery.restart import restart_on
from repro.sim.kernel import Delay, Simulator
from repro.system import System, SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import BuildOptions, IndexSpec


class Cluster:
    """A primary and N replicas on one simulated clock."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 seed: int = 0, *,
                 staleness_bound: float = 150.0,
                 resume_fraction: float = 0.5,
                 link_latency: float = 1.0,
                 link_bandwidth: Optional[float] = None,
                 batch_records: int = 24,
                 poll_interval: float = 2.0) -> None:
        self.sim = Simulator()
        self.metrics = MetricsRegistry()
        self.tracer = TraceRecorder()
        self.tracer.bind(self.sim)
        self.metrics.tracer = self.tracer
        self.config = config or SystemConfig()
        self.seed = seed
        self.link_latency = link_latency
        self.link_bandwidth = link_bandwidth
        self.batch_records = batch_records
        self.poll_interval = poll_interval
        self.nodes: dict[str, ClusterNode] = {}
        self.failing_over = False
        self.settled = False
        self.driver = None  # set by ClusterOpenLoopDriver
        primary_system = System(self.config, seed, sim=self.sim)
        primary_system.metrics.tracer = self.tracer
        self.primary = ClusterNode(self, "node0", primary_system, "primary")
        self.nodes["node0"] = self.primary
        self.router = Router(self, staleness_bound=staleness_bound,
                             resume_fraction=resume_fraction)

    # -- membership --------------------------------------------------------

    def replicas(self) -> list[ClusterNode]:
        return [node for node in self.nodes.values()
                if node.role == "replica"]

    def add_replica(self, name: Optional[str] = None, *,
                    latency: Optional[float] = None,
                    bandwidth: Optional[float] = None) -> ClusterNode:
        """Attach a fresh replica and start shipping to it.

        The new system joins the shared simulator with a copy of the
        primary's catalog (tables only -- indexes are each replica's
        own business) and bootstraps its data entirely through the
        subscription: the primary's whole durable log replays through
        the ordinary apply path.
        """
        name = name or f"node{len(self.nodes)}"
        if name in self.nodes:
            raise ValueError(f"node name {name!r} already in use")
        system = System(self.config, self.seed + len(self.nodes),
                        sim=self.sim)
        system.metrics.tracer = self.tracer
        link = NetworkLink(
            latency=self.link_latency if latency is None else latency,
            bandwidth=self.link_bandwidth if bandwidth is None
            else bandwidth)
        node = ClusterNode(self, name, system, "replica", link=link)
        for table in self.primary.system.tables.values():
            if hasattr(table, "page_capacity"):
                system.create_table(table.name, table.columns,
                                    page_capacity=table.page_capacity)
        self.nodes[name] = node
        self._subscribe(node, self.primary)
        self.metrics.incr("cluster.replicas_added")
        self.tracer.instant("cluster.replica_added", node=name)
        return node

    def rejoin_as_replica(self, old_name: str,
                          new_name: Optional[str] = None) -> ClusterNode:
        """Bring a failed ex-primary back into the fleet -- as a *new*
        replica with a full resync.

        Its old durable state may contain committed writes the rest of
        the cluster never saw (shipped log is async: RPO > 0); rather
        than reconcile divergent histories, the rejoining node discards
        them and bootstraps from the current primary like any fresh
        replica.  A fresh node name keeps its new native LSN space
        distinct from its previous incarnation's.
        """
        old = self.nodes.get(old_name)
        if old is None or old.role != "failed":
            raise ValueError(f"{old_name!r} is not a failed node")
        name = new_name or f"{old_name}r{len(self.nodes)}"
        node = self.add_replica(name)
        old.role = "retired"  # one rejoin per incarnation
        self.metrics.incr("cluster.rejoins")
        return node

    def _subscribe(self, node: ClusterNode,
                   upstream: ClusterNode) -> Subscription:
        sub = Subscription(self, node, upstream, node.link,
                           batch_records=self.batch_records,
                           poll_interval=self.poll_interval)
        node.subscription = sub
        sub.start()
        return sub

    # -- kernel ------------------------------------------------------------

    def spawn(self, body, name: str = "proc"):
        """Spawn a cluster-resident process (survives any node death)."""
        return self.sim.spawn(body, name=f"cluster.{name}")

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    # -- index builds ------------------------------------------------------

    def start_build(self, node: ClusterNode, mode: str, specs, *,
                    options: Optional["BuildOptions"] = None,
                    table_name: Optional[str] = None):
        """Run an online index build on ``node`` while it keeps applying
        (or, on the primary, serving) the write stream."""
        table_name = table_name or next(iter(node.system.tables))
        builder = get_builder(mode)(
            node.system, node.system.tables[table_name], list(specs),
            options)
        node.planned_builds.append(
            (mode, table_name, list(builder.specs), options))
        proc = node.spawn(builder.run(), name=f"build-{mode}")
        node.build_procs.append(proc)
        self.metrics.incr("cluster.builds_started")
        self.tracer.instant("cluster.build_started", node=node.name,
                            mode=mode,
                            indexes=[spec.name for spec in builder.specs])
        return builder, proc

    # -- replica crash recovery --------------------------------------------

    def recover_replica(self, node: ClusterNode):
        """Crash ``node`` and recover it in the background (idempotent)."""
        if node.recovering:
            return None
        node.recovering = True
        return self.spawn(self._recover_replica_body(node),
                          name=f"recover-{node.name}")

    def _recover_replica_body(self, node: ClusterNode):
        try:
            node.kill()
            yield from self._restart_node(node)
            while self.failing_over:
                yield Delay(0.5)
            if node.role == "replica" and self.primary is not node \
                    and not self.primary.down:
                self._subscribe(node, self.primary)
        finally:
            node.recovering = False

    def _restart_node(self, node: ClusterNode):
        """Generator: ARIES-lite restart of one node on the shared clock,
        then resume (or reissue) its interrupted index builds."""
        span = self.tracer.begin_span("cluster.recover", node=node.name)
        node.subscription = None
        node.build_procs = []
        system, _utility_state = yield from restart_on(
            node.system, self.sim, pre_undo=build_pre_undo)
        system.metrics.tracer = self.tracer
        node.system = system
        node.down = False
        for builder in resume_builds(system):
            proc = node.spawn(builder.run(), name="resume-build")
            node.build_procs.append(proc)
        # A crash before a build's first checkpoint leaves nothing to
        # resume (the orphan descriptor was discarded); reissue it.
        for mode, table_name, specs, options in node.planned_builds:
            missing = [spec for spec in specs
                       if spec.name not in system.indexes]
            if missing:
                builder = get_builder(mode)(
                    system, system.tables[table_name], missing, options)
                proc = node.spawn(builder.run(), name="reissue-build")
                node.build_procs.append(proc)
                self.metrics.incr("cluster.builds_reissued")
        self.metrics.incr("cluster.node_recoveries")
        self.tracer.end_span(span, outcome="recovered")
        return system

    # -- failover ----------------------------------------------------------

    def trigger_failover(self):
        """Start primary failover in the background (idempotent)."""
        if self.failing_over:
            return None
        self.failing_over = True
        return self.spawn(self._failover_body(), name="failover")

    def _failover_body(self):
        old = self.primary
        span = self.tracer.begin_span("cluster.failover", old=old.name)
        try:
            old.kill()
            old.role = "failed"
            # Quiesce survivors' subscriptions: they point at the dead
            # node and will be re-pointed at the winner.
            subs = [node.subscription for node in self.replicas()
                    if node.subscription is not None]
            for sub in subs:
                sub.stop_requested = True
            while any(not sub.stopped for sub in subs):
                yield Delay(0.5)

            winner = yield from self._promote(old)
            if winner is None:
                # No replica left to promote: recover the old primary
                # itself (a restart, not a failover -- there is nobody
                # to fail over *to*).
                yield from self._restart_node(old)
                old.role = "primary"
                self.primary = old
                self.tracer.end_span(span, outcome="restarted-primary")
                return old

            winner.role = "primary"
            winner.subscription = None
            self.primary = winner
            for node in self.replicas():
                if node.down or node.recovering:
                    continue  # its recovery body resubscribes later
                self._subscribe(node, winner)
            if self.driver is not None:
                self.driver.rebind(winner)
            self.metrics.incr("cluster.failovers")
            self.tracer.end_span(span, outcome="promoted",
                                 winner=winner.name)
            return winner
        finally:
            self.failing_over = False

    def _promote(self, old: ClusterNode):
        """Generator: promote the most-caught-up live replica.

        Candidates are ranked by their committed origin floor for the
        dead primary's native records (then total floors, then name).
        A candidate that crashes at the ``cluster.promote`` fault site
        is recovered in place and retried: its durable floor is intact,
        so it is still the right choice.
        """
        def rank(node: ClusterNode):
            floors = committed_origin_floors(node.system)
            return (-floors.get(old.name, 0), -sum(floors.values()),
                    node.name)

        candidates = sorted(
            (node for node in self.replicas()
             if not node.down and not node.recovering), key=rank)
        for node in candidates:
            while True:
                try:
                    fault_point(self.metrics, "cluster.promote")
                except InjectedCrash:
                    node.kill()
                    yield from self._restart_node(node)
                    continue
                self.metrics.incr("cluster.promotions")
                self.tracer.instant("cluster.promoted", node=node.name)
                return node
        return None

    # -- quiescing ---------------------------------------------------------

    def settle(self, driver=None, *, poll: float = 2.0):
        """Spawn the controller that winds the cluster down once traffic
        is done, builds are finished, and every replica has caught up --
        at which point it stops the subscriptions so the simulator can
        drain.  Without it, the poll-driven ship loops run forever."""
        return self.spawn(self._settle_body(driver, poll), name="settle")

    def _settle_body(self, driver, poll: float):
        while True:
            yield Delay(poll)
            if self.failing_over:
                continue
            nodes = [node for node in self.nodes.values()
                     if node.role in ("primary", "replica")]
            if any(node.down or node.recovering for node in nodes):
                continue
            if driver is not None and not driver.issuance_done():
                continue
            if driver is not None and driver.inflight > 0:
                continue
            if not all(node.builds_done() for node in nodes):
                continue
            if any(node.subscription is None for node in self.replicas()):
                continue
            # Roll the primary's unflushed tail (rollback records never
            # force) so "caught up" means the entire history.
            self.primary.system.log.flush()
            subs = [node.subscription for node in self.replicas()]
            if any(not sub.stopped and sub.lag() > 0 for sub in subs):
                continue
            break
        subs = [node.subscription for node in self.replicas()
                if node.subscription is not None]
        for sub in subs:
            sub.stop_requested = True
        while any(not sub.stopped for sub in subs):
            yield Delay(1.0)
        self.settled = True
        self.tracer.instant("cluster.settled")


def plan_divergent_indexes(cluster: Cluster, table_name: str,
                           slices: dict, budget_pages: int, *,
                           max_width: int = 2) -> dict:
    """Per-replica advisor runs over per-replica slices of the query mix.

    ``slices`` maps node name -> :class:`OpenLoopSpec` describing the
    share of the fleet's query mix that replica should specialize for
    (typically a subset of ``range_columns``).  Statistics come from
    the primary -- the authoritative copy of the data the replicas
    mirror.  Returns ``{node_name: (AdvisorReport, [IndexSpec, ...])}``.
    """
    from repro.advisor import (
        AdvisorConfig,
        TableStats,
        recommend,
        templates_from_spec,
    )
    stats = TableStats.from_table(cluster.primary.system,
                                  cluster.primary.system.tables[table_name])
    config = AdvisorConfig(storage_budget_pages=budget_pages,
                           max_index_width=max_width)
    plans = {}
    for name, olspec in slices.items():
        report = recommend(templates_from_spec(olspec), stats, config)
        plans[name] = (report, report.specs())
    return plans
