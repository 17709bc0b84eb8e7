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

from repro.btree.tree import IBCursor
from repro.core.base import BuilderBase
from repro.core.maintenance import NSF_MODE
from repro.faultinject.sites import fault_point
from repro.obs.progress import Phase
from repro.obs.recorder import key_metric
from repro.sort import RestartableMerger


class NSFIndexBuilder(BuilderBase):
    """No-Side-File online index builder."""

    mode = NSF_MODE

    # -- main process ------------------------------------------------------

    def _phases(self) -> list:
        share = 0.40 / len(self.specs)
        return [Phase("scan", 0.60)] + [Phase(f"insert:{spec.name}", share)
                                        for spec in self.specs]

    def _run_phases(self):
        """Build all requested indexes online."""
        state = self._resume_state
        mergers = None
        scan_start = 0
        if state is None:
            yield from self._descriptor_phase()
            self._make_sorters()
        elif state["phase"] == "scan":
            scan_start = self._resume_scan()
        else:
            # insert / insert-start.  Already-inserted keys of a
            # restarted merge are duplicate-rejected (section 2.2.3: "no
            # integrity problem in IB trying to insert keys which were
            # already inserted prior to the failure").
            mergers = self._mergers_from_manifest()
            self.system.metrics.incr("build.resumes.insert")
        if mergers is None:
            mergers = yield from self._scan_phase(
                scan_start, readers=self.options.parallel_readers)

        for descriptor in self.descriptors:
            if self._manifest[descriptor.name]["status"] == "done":
                continue
            yield from self._insert_phase(descriptor,
                                          mergers.get(descriptor.name))
            self._enter(descriptor.name, "done")
            self._write_utility_checkpoint({"phase": "insert-start"})

        self._mark_available()

    def _scan_done(self) -> None:
        self._write_utility_checkpoint({"phase": "insert-start"})

    # -- phase 1: descriptor under short quiesce ---------------------------------

    def _descriptor_phase(self):
        quiesce_txn = self.system.txns.begin("IB-descriptor")
        lock_requested = self.system.sim.now
        yield from quiesce_txn.lock(self.table.table_lock_name, "S")
        lock_granted = self.system.sim.now
        self.system.metrics.observe("build.quiesce_wait",
                                    lock_granted - lock_requested)
        self.obs.instant("quiesce.begin",
                         waited=lock_granted - lock_requested)
        self._create_descriptors()
        self._install_context()
        yield from quiesce_txn.commit()  # ends the quiesce
        self.system.metrics.observe("build.quiesce_hold",
                                    self.system.sim.now - lock_granted)
        self.obs.instant("quiesce.end",
                         held=self.system.sim.now - lock_granted)
        # Initial checkpoint so a crash before the first periodic scan
        # checkpoint can still resume (from page zero).
        self._write_utility_checkpoint({
            "phase": "scan", "next_page": 0, "sort": {}})
        self._mark("descriptor_done")
        fault_point(self.system.metrics, "nsf.descriptor_done")

    # -- phase 3: key insertion ------------------------------------------------------

    def _gauge_watermark(self, descriptor, highest) -> None:
        """Gauge the gradual-availability frontier (footnote 3)."""
        if self.obs.tracer is not None and highest is not None:
            self.obs.gauge("read_watermark", key_metric(highest[0]),
                           index=descriptor.name, key=str(highest[0]))

    def _insert_phase(self, descriptor, merger: Optional[RestartableMerger]):
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
        codec = self._codecs.get(descriptor.name)
        decode = codec.decode if codec is not None and codec.active else None
        while merger is not None:
            batch = merger.pop_many(self.ib_batch_keys)
            if not batch:
                break
            if decode is not None:
                batch = [decode(encoded) for encoded in batch]
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
                # Footnote 3 of section 2.2.1: the committed frontier can
                # serve reads of lower key ranges (opt-in, see
                # repro.query.set_gradual_availability).
                descriptor.read_watermark = highest
                self._gauge_watermark(descriptor, highest)
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
                descriptor.read_watermark = highest
                self._gauge_watermark(descriptor, highest)
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
        if highest is not None:
            descriptor.read_watermark = highest
            self._gauge_watermark(descriptor, highest)
        self.obs.end(f"insert:{descriptor.name}")
        self._mark(f"insert_done:{descriptor.name}")
        fault_point(self.system.metrics, "nsf.insert_done")
