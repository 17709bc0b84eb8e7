"""Open-loop traffic against a cluster: routed reads, primary writes.

:class:`ClusterOpenLoopDriver` keeps the base driver's arrival
schedule, operation mix, key skew, and write-transaction machinery, and
changes *where* each operation runs:

* writes always target the current primary (single-master);
* point reads go wherever :meth:`Router.route_point` says;
* range reads draw their filter column first, then ask
  :meth:`Router.route_range` for a fresh replica serving that column
  from an AVAILABLE index -- this is the end-to-end payoff of divergent
  per-replica builds.

Every operation *adopts* into the node it touches, so a node crash
unwinds exactly the in-flight operations on that node -- they complete
with outcome ``node_down`` rather than hanging or corrupting the
latency record (their latency is excluded like any non-committed op).
During a failover window new operations hold at issue time until the
new primary is installed; the held time counts against their latency,
which is exactly what an SLO should see from a failover.

Replica reads run with ``serializable=False`` (no next-key locking):
a replica read is already a snapshot-stale read bounded by the router's
staleness check, so phantom protection against the apply stream would
add deadlocks for no additional guarantee.
"""

from __future__ import annotations

import random
from typing import Optional, TYPE_CHECKING

from repro.errors import NodeDown, RecordNotFoundError, TransactionAborted
from repro.query.access import (
    IndexNotAvailableError,
    index_range_scan,
    table_scan,
)
from repro.sim.kernel import Delay
from repro.workloads.openloop import OpenLoopDriver, OpenLoopSpec
from repro.workloads.pool import RidPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import ClusterNode


class ClusterOpenLoopDriver(OpenLoopDriver):
    """Open-loop traffic whose reads are routed across the cluster."""

    def __init__(self, cluster: "Cluster", table_name: str,
                 spec: Optional[OpenLoopSpec] = None, seed: int = 0,
                 index_name: Optional[str] = None) -> None:
        self.cluster = cluster
        self.table_name = table_name
        super().__init__(cluster.primary.system,
                         cluster.primary.system.tables[table_name],
                         spec, seed, index_name=index_name)
        self.dispatcher_proc = None
        cluster.driver = self

    # -- dispatch ----------------------------------------------------------

    def spawn(self):
        """Spawn the dispatcher as a *cluster-resident* process: arrivals
        keep firing through node deaths and failovers."""
        self.started_at = self.cluster.sim.now
        self.dispatcher_proc = self.cluster.spawn(self.dispatcher(),
                                                  name="openloop")
        return self.dispatcher_proc

    def issuance_done(self) -> bool:
        return self.dispatcher_proc is not None \
            and self.dispatcher_proc.finished

    def _op_body(self, op_id: int, op: str, rng):
        tracer = self.cluster.tracer
        span = tracer.begin_span("op", op=op, id=op_id)
        outcome = "error"
        try:
            try:
                if op in ("read", "range"):
                    outcome = yield from self._read_op(op, rng)
                else:
                    yield from self._await_stable()
                    self.cluster.primary.adopt(self.cluster.sim.current)
                    yield from self._one_transaction(rng, 0, op)
                    outcome = self.op_timeline[-1].outcome
            except NodeDown:
                # The node serving this operation died under it; the
                # write (if any) is rolled back by that node's restart.
                outcome = "node_down"
                self._record(op, 0, "node_down")
                self.cluster.metrics.incr("cluster.ops_node_down")
        finally:
            self.inflight -= 1
            self._gauge_inflight()
            tracer.end_span(span, outcome=outcome)

    def _await_stable(self):
        """Generator: hold the operation while the write master is in
        flux.  The wait lands in the op's latency -- failover is not
        free and the SLO report should show it."""
        cluster = self.cluster
        while cluster.failing_over or cluster.primary.down \
                or cluster.primary.recovering:
            yield Delay(1.0)

    # -- routed reads ------------------------------------------------------

    def _read_op(self, op: str, rng):
        issued = self.cluster.sim.now
        yield from self._await_stable()
        router = self.cluster.router
        low = 0
        column: Optional[str] = None
        if op == "range":
            # Draw the filter column *before* routing so the router can
            # match it against each replica's divergent index set.
            low = self._draw_key(rng)
            if self._range_columns:
                column = rng.choices(
                    [name for name, _weight in self._range_columns],
                    weights=[weight for _name, weight
                             in self._range_columns])[0]
                node = router.route_range(self.table_name, column)
            else:
                node = router.route_point()
        else:
            node = router.route_point()
        node.adopt(self.cluster.sim.current)
        system = node.system
        table = system.tables[self.table_name]
        serializable = node.role == "primary"
        txn = system.txns.begin(f"ol-{op}")
        try:
            if op == "read":
                rid = self._sample_rid(rng)
                if rid is not None:
                    try:
                        yield from table.read(txn, rid)
                    except RecordNotFoundError:
                        # Concurrent delete won the race -- or a lagging
                        # replica has not applied this RID yet.  Either
                        # way: an empty (stale) result, not an error.
                        pass
                else:
                    op = "noop"
            else:
                yield from self._routed_range_read(
                    txn, system, table, low, column,
                    serializable=serializable)
            yield from txn.commit()
            self._record(op, 0, "committed", issued=issued)
            self.cluster.metrics.incr(f"cluster.reads.{node.name}")
            return "committed"
        except TransactionAborted:
            yield from txn.rollback()
            self._record(op, 0, "aborted", issued=issued)
            return "aborted"

    def _routed_range_read(self, txn, system, table, low: int,
                           column: Optional[str], *, serializable: bool):
        high = low + self.olspec.range_span
        position = 0
        descriptor = None
        if column is not None:
            position = table.columns.index(column)
            for candidate in table.indexes:
                key_columns = getattr(candidate, "key_columns", ())
                if key_columns and key_columns[0] == column:
                    descriptor = candidate
                    break
        elif self.index_name is not None:
            descriptor = system.indexes.get(self.index_name)
        if descriptor is not None:
            try:
                results = yield from index_range_scan(
                    txn, descriptor, (low,), (high,),
                    serializable=serializable)
                system.metrics.incr("openloop.range_via_index")
                self.cluster.metrics.incr("cluster.range_via_index")
                if column is not None:
                    system.metrics.incr(
                        f"openloop.range_via_index.{column}")
                    self.cluster.metrics.incr(
                        f"cluster.range_via_index.{column}")
                return results
            except IndexNotAvailableError:
                pass
        results = yield from table_scan(
            txn, table,
            predicate=lambda record: low <= record.values[position] < high)
        system.metrics.incr("openloop.range_via_scan")
        self.cluster.metrics.incr("cluster.range_via_scan")
        if column is not None:
            system.metrics.incr(f"openloop.range_via_scan.{column}")
        return results

    # -- failover ----------------------------------------------------------

    def rebind(self, node: "ClusterNode") -> None:
        """Re-point writes at the newly promoted primary.

        The RID pool is pruned to rows that survived the failover:
        committed-but-unshipped primary writes are lost (async
        replication, RPO > 0), and the pool must not keep handing out
        their RIDs as update/delete victims.
        """
        self.system = node.system
        self.table = node.system.tables[self.table_name]
        live = {rid for rid, _record in self.table.audit_records()}
        self.pool = RidPool((rid, key) for rid, key in self.pool.items()
                            if rid in live)
        self.cluster.metrics.incr("cluster.driver_rebinds")
        self.cluster.tracer.instant("cluster.driver_rebound",
                                    primary=node.name)
