"""WAL log shipping: one combined ship+apply loop per replica.

A :class:`Subscription` is the replica-resident process that drives
replication.  Each iteration it compares its position against the
upstream's *flushed* LSN (replicas only ever see durable log -- the
unflushed tail dies with the primary), pulls the next batch of records,
pays the :class:`~repro.cluster.node.NetworkLink` wire time, filters
the batch down to shippable heap history it has not applied before
(:func:`~repro.cluster.apply.committed_origin_floors`), and applies it
in one local transaction.  Apply-LSN lag is gauged into the cluster
trace (``cluster.apply_lag``) after every batch -- the router's
staleness input and the observability story for "how far behind is
this replica".

Failure modelling happens here because this loop is where the two
halves of replication meet:

* ``cluster.ship`` -- the primary (or the link) dies mid-ship.  The
  subscription stops itself and triggers cluster failover.
* ``cluster.apply`` -- the *replica* dies mid-apply.  The subscription
  stops itself and asks the cluster to crash-recover this node; the
  recovered node resumes from its durable floor.

Both faults are caught inside this process (an escaped
:class:`InjectedCrash` is a :class:`SystemCrash` and would stop the
shared kernel); the recovery work itself runs in cluster-resident
processes because a node-resident process cannot orchestrate its own
node's death.

Local deadlocks between the applier's X locks and reader S locks are
resolved by the lock manager choosing a victim; an aborted apply batch
rolls back and retries without advancing the position.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.cluster.apply import (
    apply_record,
    committed_origin_floors,
    record_identity,
    shippable,
)
from repro.errors import TransactionAborted
from repro.faultinject.injector import InjectedCrash
from repro.faultinject.sites import fault_point
from repro.sim.kernel import Delay
from repro.storage.table import H_TABLE
from repro.wal.records import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import ClusterNode, NetworkLink


class Subscription:
    """One replica's live subscription to an upstream node's WAL."""

    def __init__(self, cluster: "Cluster", node: "ClusterNode",
                 upstream: "ClusterNode", link: "NetworkLink", *,
                 batch_records: int = 24, poll_interval: float = 2.0,
                 checkpoint_every_batches: int = 8) -> None:
        self.cluster = cluster
        self.node = node
        self.upstream = upstream
        self.link = link
        self.batch_records = batch_records
        self.poll_interval = poll_interval
        self.checkpoint_every_batches = checkpoint_every_batches
        #: highest upstream-local LSN fully applied and committed here
        self.position = 0
        #: per original writer, highest origin LSN durably applied
        self.floors = committed_origin_floors(node.system)
        self.stop_requested = False
        self.stopped = False
        self.proc = None
        self.batches_applied = 0
        self._fast_forward()

    # -- positions ---------------------------------------------------------

    def _fast_forward(self) -> None:
        """Skip the prefix of the upstream log this replica already has.

        Models the handshake where a (re)subscribing replica announces
        its floors and shipping starts past everything covered by them
        -- without it, every resubscribe would re-transmit the whole
        upstream log just to discard it record by record.
        """
        log = self.upstream.system.log
        position = 0
        for record in log.scan(to_lsn=log.flushed_lsn):
            if self._applies(record):
                break
            position = record.lsn
        self.position = position

    def _applies(self, record: LogRecord) -> bool:
        if not shippable(record):
            return False
        if record.payload[H_TABLE] not in self.node.system.tables:
            return False
        writer, origin = record_identity(self.upstream.name, record)
        if writer == self.node.name:
            return False  # never re-apply your own history
        return origin > self.floors.get(writer, 0)

    def lag(self) -> int:
        """Apply lag in log records against the upstream's durable tail."""
        return max(0, self.upstream.system.log.flushed_lsn - self.position)

    # -- the ship+apply process --------------------------------------------

    def start(self):
        self.proc = self.node.spawn(self.run(),
                                    name=f"apply<{self.upstream.name}")
        return self.proc

    def run(self):
        cluster = self.cluster
        try:
            while not self.stop_requested:
                if self.upstream.down:
                    return
                log = self.upstream.system.log
                flushed = log.flushed_lsn
                if flushed <= self.position:
                    self._gauge_lag()
                    yield Delay(self.poll_interval)
                    continue
                upto = min(flushed, self.position + self.batch_records)
                batch = list(log.scan(from_lsn=self.position + 1,
                                      to_lsn=upto))
                yield from self.link.transmit(len(batch))
                try:
                    fault_point(cluster.metrics, "cluster.ship")
                except InjectedCrash:
                    # Models the primary dying mid-ship: this replica
                    # saw the stream stop and raises the alarm.
                    cluster.trigger_failover()
                    return
                applicable = [
                    (record, record_identity(self.upstream.name, record))
                    for record in batch if self._applies(record)]
                if applicable:
                    try:
                        yield from self._apply_batch(applicable)
                    except InjectedCrash:
                        # Models this replica crashing mid-apply.
                        cluster.recover_replica(self.node)
                        return
                self.position = upto
                self.batches_applied += 1
                cluster.metrics.incr("cluster.batches_shipped")
                self._gauge_lag()
                if self.checkpoint_every_batches and \
                        self.batches_applied \
                        % self.checkpoint_every_batches == 0:
                    self._checkpoint()
        finally:
            self.stopped = True

    def _apply_batch(self, applicable):
        """Apply one shipped batch in a single local transaction.

        A deadlock with a local reader (or builder) aborts the batch
        transaction; rollback undoes the partial batch and the loop
        retries from the same position -- the floor only moves on
        commit, so exactly-once holds.
        """
        system = self.node.system
        while True:
            txn = system.txns.begin(f"apply-{self.node.name}")
            try:
                fault_point(self.cluster.metrics, "cluster.apply")
                for record, origin in applicable:
                    yield from apply_record(txn, system, record, origin)
                yield from txn.commit()
                break
            except TransactionAborted:
                yield from txn.rollback()
                system.metrics.incr("cluster.apply_retries")
                yield Delay(1.0)
        for _record, (writer, origin) in applicable:
            if origin > self.floors.get(writer, 0):
                self.floors[writer] = origin
        system.metrics.incr("cluster.batches_applied")

    def _checkpoint(self) -> None:
        """Periodic local checkpoint bounding this replica's recovery; it
        records the live build registry like every checkpoint does."""
        self.node.system.checkpoint()
        self.node.system.metrics.incr("cluster.apply_checkpoints")

    def _gauge_lag(self) -> None:
        tracer = self.cluster.metrics.tracer
        if tracer is not None:
            tracer.gauge("cluster.apply_lag", float(self.lag()),
                         node=self.node.name, position=self.position)
