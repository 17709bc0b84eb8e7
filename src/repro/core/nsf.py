"""Algorithm NSF: index build without a side-file (section 2).

Timeline (section 2.2):

1. **Descriptor creation under a short quiesce** -- IB takes a share lock
   on the table, which waits out every active updater's IX lock and holds
   off new updates just long enough to create the descriptor; from then on
   transactions insert and delete keys *directly* in the new index
   (section 2.2.1).
2. **Scan and pipelined restartable sort** (sections 2.2.2, 5).
3. **Key insertion** through the multi-key index-manager interface with a
   remembered root-to-leaf path and specialized splits; IB writes
   undo-redo log records and periodically commits and checkpoints the
   highest inserted key (section 2.2.3).
4. The index becomes available for reads; pseudo-deleted-key cleanup may
   be scheduled (sections 2.2.4, handled by :mod:`repro.core.cleanup`).

Duplicate-key and delete-key races are resolved by the tree's rejection /
tombstone machinery (:mod:`repro.btree.tree`).
"""

from __future__ import annotations

from typing import Optional

from repro.btree.node import entry_key
from repro.btree.tree import IBCursor
from repro.core.base import BuilderBase
from repro.core.maintenance import NSF_MODE
from repro.core.sources import HeapScan
from repro.faultinject.sites import fault_point
from repro.obs.progress import Phase
from repro.obs.recorder import key_metric
from repro.sort import RestartableMerger


class NSFIndexBuilder(BuilderBase):
    """No-Side-File online index builder: the heap scan, then one
    ``insert`` step per index."""

    mode = NSF_MODE
    steps = ("insert",)
    descriptor_done_site = "nsf.descriptor_done"

    def _configure(self) -> None:
        self.source = HeapScan(self)

    def _phases(self) -> list:
        share = 0.40 / len(self.specs)
        return [Phase("scan", 0.60)] + [Phase(f"insert:{spec.name}", share)
                                        for spec in self.specs]

    def _scan_done(self) -> None:
        self._write_utility_checkpoint({"phase": "insert-start"})

    # -- phase 1: descriptor under short quiesce ---------------------------------

    def _descriptor_phase(self):
        """Section 2.2.1: the descriptors appear under a short S quiesce."""
        yield from self._quiesced("S", "IB-descriptor", self._attach())

    def _attach(self):
        """The descriptors, visible from here on (no simulated time)."""
        yield from ()
        self._create_descriptors()
        self._install_context()

    # -- phase 3: key insertion ------------------------------------------------------

    def _publish_watermark(self, descriptor, highest) -> None:
        """Footnote 3 of section 2.2.1: the committed frontier can serve
        reads of lower key ranges (opt-in, see
        repro.query.set_gradual_availability); gauge it."""
        if highest is None:
            return
        descriptor.read_watermark = highest
        if self.obs.tracer is not None:
            self.obs.gauge("read_watermark", key_metric(entry_key(highest)),
                           index=descriptor.name, key=str(entry_key(highest)))

    def _insert_step(self, descriptor, merger: Optional[RestartableMerger]):
        """Phase 3 for one index.  Already-inserted keys of a resumed
        merge are duplicate-rejected (section 2.2.3: "no integrity
        problem in IB trying to insert keys which were already inserted
        prior to the failure")."""
        tree = descriptor.tree
        self.obs.begin("insert", key=f"insert:{descriptor.name}",
                       index=descriptor.name)
        ib_txn = self.system.txns.begin(f"IB-insert-{descriptor.name}")
        cursor = IBCursor()
        since_commit = 0
        since_checkpoint = 0
        inserted = 0
        keys_total = self._store_for(descriptor).total_keys() \
            if self.obs.progress is not None else 0
        highest = None
        commit_every = self.options.commit_every_keys
        checkpoint_every = self.options.checkpoint_every_keys
        while merger is not None:
            batch = merger.pop_many(self.options.ib_batch_keys)
            if not batch:
                break
            yield from self._throttle(len(batch))
            yield from tree.ib_insert_batch(ib_txn, batch, cursor)
            fault_point(self.system.metrics, "nsf.insert_batch")
            highest = batch[-1]
            since_commit += len(batch)
            since_checkpoint += len(batch)
            inserted += len(batch)
            self.obs.advance(f"insert:{descriptor.name}", inserted,
                             keys_total)
            if commit_every and since_commit >= commit_every:
                yield from ib_txn.commit()
                fault_point(self.system.metrics, "nsf.ib_commit")
                self._publish_watermark(descriptor, highest)
                ib_txn = self.system.txns.begin(
                    f"IB-insert-{descriptor.name}")
                since_commit = 0
                self.system.metrics.incr("build.ib_commits")
            if checkpoint_every and since_checkpoint >= checkpoint_every:
                yield from ib_txn.commit()
                # The checkpoint path is a commit too: the frontier it
                # commits is just as readable as the one committed by the
                # commit_every path above.  Leaving the watermark behind
                # here stalled gradual availability whenever checkpoints
                # fired more often than (or instead of) plain commits.
                self._publish_watermark(descriptor, highest)
                self._enter(descriptor.name, "loading",
                            merge=merger.checkpoint(), highest_key=highest)
                self._write_utility_checkpoint({"phase": "insert"})
                ib_txn = self.system.txns.begin(
                    f"IB-insert-{descriptor.name}")
                since_checkpoint = 0
                since_commit = 0
                self.system.metrics.incr("build.insert_checkpoints")
                fault_point(self.system.metrics, "nsf.insert_checkpoint")
        yield from ib_txn.commit()
        self._publish_watermark(descriptor, highest)
        self.obs.end(f"insert:{descriptor.name}")
        self._mark(f"insert_done:{descriptor.name}")
        fault_point(self.system.metrics, "nsf.insert_done")
        self._enter(descriptor.name, "done")
        self._write_utility_checkpoint({"phase": "insert-start"})
