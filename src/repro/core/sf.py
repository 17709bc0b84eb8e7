"""Algorithm SF: bottom-up index build with a side-file (section 3).

Timeline (section 3.2):

1. **Descriptor creation without any quiesce** -- the descriptor is
   appended to the table's index list while updaters run; IB sets the
   ``Index_Build`` flag (section 3.2.1).
2. **Scan and pipelined restartable sort**; IB maintains ``Current-RID``
   as it finishes each page (under the page latch, which is why
   Current-RID and Target-RID can never be equal, section 3.1).
   Transactions touching records *behind* the scan append
   ``<operation, key>`` entries to the side-file; ahead of the scan they
   ignore the new index entirely (Figure 1).  When the scan finishes,
   Current-RID becomes infinity so later file extensions also reach the
   side-file (section 3.2.2).
3. **Bottom-up bulk load**, unlogged, pipelined from the final merge pass;
   checkpoints force the tree's dirty pages and record the merge counters
   plus the highest key (section 3.2.4).
4. **Side-file drain**: IB applies the entries in order, writing undo-redo
   log records and checkpointing its position; transactions may still be
   appending.  After the last entry, IB atomically resets the flag and the
   index becomes directly maintained (section 3.2.5).
"""

from __future__ import annotations

from typing import Optional

from repro.btree.loader import BulkLoader
from repro.btree.tree import IX_INDEX
from repro.core.base import BuilderBase, IndexSpec
from repro.core.descriptor import IndexState
from repro.core.maintenance import (
    MULTI_MODE,
    PSF_MODE,
    REBUILD_MODE,
    SF_MODE,
)
from repro.core.sources import HeapScan, SealedRuns, ShardScan
from repro.faultinject.sites import fault_point
from repro.sidefile import SideFile, register_sidefile_operations
from repro.sort import RunStore
from repro.storage.rid import INFINITY_RID, RID


class SFIndexBuilder(BuilderBase):
    """Side-File online index builder.

    Two parts: a key source (:mod:`repro.core.sources`) that ends in one
    final merger per index, and the per-index manifest that the load and
    drain phases write and one resume routine reads.  The named modes
    below differ only in the class attributes of this block.
    """

    mode = SF_MODE
    steps = ("load", "drain")
    #: shard count when ``options.partitions`` is unset (None = the
    #: serial scan)
    default_partitions: Optional[int] = None
    #: the key source when it is not a data-page scan (sealed runs, an
    #: index-organized table's primary-key range scan)
    key_source: Optional[type] = None
    #: fault sites of the serial scan's descriptor step and of the
    #: end-of-scan transition
    descriptor_done_site = "sf.descriptor_done"
    scan_done_site = "sf.scan_done"

    def _configure(self) -> None:
        if self.options.parallel_readers > 1:
            raise ValueError(
                f"{self.mode}: parallel_readers="
                f"{self.options.parallel_readers} is for NSF and offline; "
                "a side-file build scans in parallel with "
                "BuildOptions.partitions (one Current-RID per shard)")
        partitions = self.options.partitions
        if partitions is not None and partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        if self.options.drain_batch < 1:
            raise ValueError("need at least one side-file entry per drain "
                             f"batch, got {self.options.drain_batch}")
        if self.key_source is not None:
            if partitions is not None:
                raise ValueError(
                    f"{self.mode}: partitions={partitions} shards the data "
                    "scan, and this mode never scans data pages (its keys "
                    f"come from {self.key_source.__name__}); drop "
                    "BuildOptions.partitions")
        elif partitions is None:
            partitions = self.default_partitions
        #: scan shards (None = the serial scan)
        self.partitions = partitions
        source = self.key_source \
            or (HeapScan if partitions is None else ShardScan)
        self.source = source(self)
        #: loaders prepared by resume for trees cut back to a checkpoint
        self._resume_loaders: dict[str, BulkLoader] = {}
        #: descriptors recovering from a torn stable snapshot (section 6)
        self._torn_recover: set[str] = set()

    # -- main process ------------------------------------------------------

    def _build_span_attrs(self) -> dict:
        return {} if self.partitions is None \
            else {"partitions": self.partitions}

    def _scan_done(self) -> None:
        # Section 3.2.2: Current-RID := infinity when the scan is done,
        # so subsequent file extensions still reach the side-file.
        self.context.current_rid = INFINITY_RID
        fault_point(self.system.metrics, self.scan_done_site)
        # From here each index resumes from its own manifest entry.
        self._write_utility_checkpoint({"phase": "load-start"})

    def _load_step(self, descriptor, merger):
        """Phase 3 for one index: bottom-up bulk load, then whatever
        logged history the loaded keys predate."""
        name = descriptor.name
        if self._manifest[name]["status"] == "draining":
            return  # resumed past its load
        yield from self._load_phase(
            descriptor, merger, loader=self._resume_loaders.pop(name, None))
        self.source.loaded(descriptor)
        if name in self._torn_recover:
            self._torn_recover.discard(name)
            self._replay_index_log(descriptor)
        # a torn-recovery drain offset survives the reload
        self._enter(name, "draining",
                    position=self._manifest[name].get("position", 0))
        if not any(entry["status"] in ("pending", "loading")
                   for entry in self._manifest.values()):
            self._mark("load_done")
        if self.pipelined:
            # The drain-start checkpoint follows at once, and the seal
            # after it (:meth:`_drain_step`).
            fault_point(self.system.metrics, "multibuild.index_loaded")
            return
        self._write_utility_checkpoint({"phase": "load-start"})
        self._seal_sorted_runs(descriptor, merger)

    def _drain_step(self, descriptor, merger):
        """Phase 4 for one index: the logged side-file drain + flip."""
        name = descriptor.name
        metrics = self.system.metrics
        entry = self._manifest[name]
        start = max(entry.get("position", 0), entry.get("floor", 0))
        self.system.sidefiles[name].force()
        self._enter(name, "draining", position=start)
        self._write_utility_checkpoint({"phase": "drain"})
        if self.pipelined and merger is not None:
            self._seal_sorted_runs(descriptor, merger)
        fault_point(metrics, "sf.drain_start")
        yield from self._drain_phase(descriptor, start)
        self._enter(name, "done")
        if self.pipelined:
            # Record the flip before the next index's load: a crash in
            # it must not re-drain this one.
            metrics.incr("multibuild.indexes_flipped")
            self._write_utility_checkpoint({"phase": "load-start"})
            fault_point(metrics, "multibuild.index_done")

    # -- phase 1: descriptor without quiesce --------------------------------------

    def _descriptor_phase(self, frontier=None):
        """No lock, no waiting: SF's headline availability property
        (section 3.2.1: "without quiescing (update) transactions").
        ``frontier``: the shard scan's one Current-RID per shard."""
        yield from ()  # a generator like NSF's, without its quiesce
        self._create_descriptors()
        register_sidefile_operations(self.system)
        for descriptor in self.descriptors:
            sidefile = SideFile(self.system, descriptor.name)
            self.system.sidefiles[descriptor.name] = sidefile
        self._install_context(current_rid=RID(0, 0), index_build=True,
                              frontier=frontier)
        self.system.metrics.observe("build.quiesce_wait", 0.0)
        self.system.metrics.observe("build.quiesce_hold", 0.0)

    # -- phase 2 hooks: scan limit and Current-RID maintenance ---------------------------

    def _scan_limit(self, noted_last_page: int) -> int:
        """SF chases the end of file: records inserted ahead of
        Current-RID made no side-file entries and must be scanned."""
        return self.table.page_count

    def _after_page_scanned(self, page) -> None:
        """Advance Current-RID past this page, still under its latch.

        Page granularity keeps Target-RID != Current-RID guaranteed by the
        latch protocol (section 3.1)."""
        if self.context is not None:
            self.context.current_rid = RID(page.page_id.page_no + 1, 0)

    def _seal_sorted_runs(self, descriptor, merger) -> None:
        """Seal the final merge output for fast index reconstruction.

        Called right after the first checkpoint that no longer
        references the merge, so moving the merger's output run out of
        the sort store can no longer strand a mid-load merge manifest (a
        crash before the seal simply skips it -- the previous sealed
        generation, if any, stays valid).

        The fully merged, forced run holds every key the bulk load just
        consumed, in order -- exactly what a drop+rebuild would otherwise
        re-derive by scanning and re-sorting the whole table.  Park it in
        the per-index ``sealed:`` store and record a manifest so
        :meth:`repro.system.System.rebuild_index` can reuse it with zero
        table-page reads (experiment E25).
        """
        system = self.system
        sealed_name = f"sealed:{descriptor.name}"
        sealed = system.run_stores.get(sealed_name)
        if sealed is None:
            sealed = RunStore(prefix=sealed_name)
            system.run_stores[sealed_name] = sealed
        runs: list[str] = []
        lengths: dict[str, int] = {}
        if merger is not None:
            output = merger.output
            output.closed = True
            output.force()
            # MOVE the output out of the build's run store: left closed
            # there, the torn-snapshot fallback (which re-merges every
            # closed run in the store) would merge the output *and* its
            # inputs, doubling every key.
            self._store_for(descriptor).discard(output.name)
            sealed.runs[output.name] = output
            runs = [output.name]
            lengths[output.name] = len(output)
        # Drop any previously sealed generation (and, for a rebuild, the
        # inputs it just consumed): one sealed run per index.
        sealed.keep_only(runs)
        system.sealed_runs[descriptor.name] = {
            "index": descriptor.name,
            "table": self.table.name,
            "key_columns": list(descriptor.key_columns),
            "unique": descriptor.unique,
            "runs": runs,
            "lengths": lengths,
        }
        system.metrics.incr("rebuild.runs_sealed", len(runs))
        self.obs.instant("rebuild.seal", index=descriptor.name,
                         runs=list(runs))
        fault_point(system.metrics, "rebuild.sealed")

    # -- phase 4: side-file drain and atomic flag flip (section 3.2.5) ------

    def _drain_phase(self, descriptor, start_position: int):
        """IB applies the side-file entries in order with undo-redo
        logging, checkpoints its position, and when the drain position
        reaches the end of the file flips the descriptor to AVAILABLE in
        the same atomic step."""
        tree = descriptor.tree
        sidefile = self.system.sidefiles[descriptor.name]
        ib_txn = self.system.txns.begin(f"IB-drain-{descriptor.name}")
        position = start_position
        since_checkpoint = 0
        checkpoint_every = self.options.checkpoint_every_keys
        self.obs.begin("drain", key=f"drain:{descriptor.name}",
                       index=descriptor.name, start_position=start_position,
                       backlog=len(sidefile.entries) - position)

        if self.options.sort_sidefile and position < len(sidefile.entries):
            position = yield from self._drain_sorted_chunk(
                descriptor, ib_txn, sidefile, position)
            sidefile.drain_position = position

        drain_batch = self.options.drain_batch
        while True:
            while position < len(sidefile.entries):
                # Feed the tree batches instead of single entries: one
                # traversal + latch hold covers a whole batch of
                # consecutive same-leaf entries (bounded so checkpoints
                # still land on schedule).
                take = len(sidefile.entries) - position
                if take > drain_batch:
                    take = drain_batch
                if checkpoint_every:
                    slack = checkpoint_every - since_checkpoint
                    if slack >= 1 and take > slack:
                        take = slack
                yield from self._throttle(take)
                batch = [(entry.operation, entry.key_value, entry.rid)
                         for entry in
                         sidefile.entries[position:position + take]]
                position += take
                yield from tree.sf_drain_apply_batch(ib_txn, batch)
                yield from self._end_if_dropped(descriptor, "drain", ib_txn)
                self.system.metrics.incr("build.sidefile_drained", take)
                sidefile.drain_position = position
                self.obs.gauge("sidefile.backlog",
                               len(sidefile.entries) - position,
                               index=descriptor.name)
                since_checkpoint += take
                if checkpoint_every and since_checkpoint >= checkpoint_every:
                    yield from ib_txn.commit()
                    sidefile.force()
                    self._enter(descriptor.name, "draining",
                                position=position)
                    self._write_utility_checkpoint({"phase": "drain"})
                    ib_txn = self.system.txns.begin(
                        f"IB-drain-{descriptor.name}")
                    since_checkpoint = 0
                    self.system.metrics.incr("build.drain_checkpoints")
                    fault_point(self.system.metrics, "sf.drain_checkpoint")
            # Atomic completion test: no yields between the length check
            # and the state flip, so a racing append either landed before
            # (and was processed) or lands after the flip and goes
            # directly to the index (section 3.2.5).
            yield from self._end_if_dropped(descriptor, "drain", ib_txn)
            fault_point(self.system.metrics, "sf.flag_flip.before")
            if position == len(sidefile.entries):
                descriptor.state = IndexState.AVAILABLE
                if self.context is not None \
                        and descriptor in self.context.descriptors:
                    self.context.descriptors.remove(descriptor)
                self.obs.instant("sf.flip", index=descriptor.name,
                                 position=position)
                fault_point(self.system.metrics, "sf.flag_flip.after")
                break
        tree.verify_unique()
        yield from ib_txn.commit()
        self.system.metrics.observe(
            f"build.sidefile_length.{descriptor.name}", position)
        self.obs.end(f"drain:{descriptor.name}",
                     drained=position - start_position)
        self._mark(f"drain_done:{descriptor.name}")

    def _drain_sorted_chunk(self, descriptor, ib_txn, sidefile,
                            position: int):
        """Section 3.2.5 optimization: sort the current side-file contents
        (stable with respect to identical keys) before applying, so the
        tree is updated in key order; the remainder arriving during the
        sorted pass is processed sequentially by the caller.

        Key order is where drain batching pays off most: consecutive
        sorted entries land on the same leaf, so each batch collapses to
        a handful of traversals (EXPERIMENTS.md E19 measures the window
        shrinking as ``drain_batch`` grows)."""
        end = len(sidefile.entries)
        chunk = list(enumerate(sidefile.entries[position:end],
                               start=position))
        chunk.sort(key=lambda item: (item[1].key_value, item[1].rid,
                                     item[0]))
        drain_batch = self.options.drain_batch
        metrics = self.system.metrics
        for start in range(0, len(chunk), drain_batch):
            batch = [(entry.operation, entry.key_value, entry.rid)
                     for _pos, entry in chunk[start:start + drain_batch]]
            yield from self._throttle(len(batch))
            yield from descriptor.tree.sf_drain_apply_batch(ib_txn, batch)
            metrics.incr("build.sidefile_drained", len(batch))
            metrics.incr("build.sidefile_drained_sorted", len(batch))
        return end

    # -- restart (section 3.2.4 / 3.2.5) ------------------------------------------------------

    def _resume_loads(self) -> dict:
        """The shared resume, after the section 6 fallback, per index.

        A torn stable snapshot means nothing of the tree survived, and
        an SF build cannot be redone from the log (the bulk load is
        unlogged).  The torn index alone goes back to pending -- the
        others keep their manifest progress: it is reloaded from the
        forced, closed sort runs, its logged maintenance replayed
        (:meth:`_replay_index_log`), then its side-file re-drained from
        the position it enters.  If the Index_Build flag had already
        been reset, the side-file was fully drained and later changes
        went straight to the index (they exist only as log records);
        skip re-draining that frozen prefix or it would clobber the
        replayed direct maintenance.
        """
        for descriptor in self.descriptors:
            name = descriptor.name
            if not descriptor.tree.media_damaged:
                continue
            flipped = self._manifest[name]["status"] == "done" \
                or descriptor.state is IndexState.AVAILABLE
            sidefile = self.system.sidefiles.get(name)
            self._enter(name, "pending", position=len(sidefile.entries)
                        if flipped and sidefile is not None else 0)
            descriptor.tree.reset()
            descriptor.state = IndexState.BUILDING
            if self.context is not None \
                    and descriptor not in self.context.descriptors:
                self.context.descriptors.append(descriptor)
            self._torn_recover.add(name)
            self.system.metrics.incr("build.resumes.torn_fallback")
        return super()._resume_loads()

    def _resume_load(self, descriptor, entry: dict):
        """Merger for a load resumed from its merge checkpoint.

        The tree may hold keys above the checkpoint (its snapshot was
        forced before the checkpoint record that never landed); "the
        index pages can be reset in such a way that the keys higher than
        the checkpointed key disappear" (section 3.2.4)."""
        merger = super()._resume_load(descriptor, entry)
        self._align_tree_with_checkpoint(descriptor, entry["highest_key"])
        return merger

    def _restart_load(self, descriptor):
        """Merger for a load with no merge checkpoint: the whole load
        restarts from the closed runs, so any surviving tree content (the
        checkpoint trio forces *every* build tree, so even a pending
        index may hold a partial load) must go."""
        tree = descriptor.tree
        if tree.key_count(include_pseudo_deleted=True):
            tree.reset()
        return super()._restart_load(descriptor)

    def _align_tree_with_checkpoint(self, descriptor, highest_key) -> None:
        """Cut the restored tree back to the checkpointed highest key.

        The checkpoint trio forces the tree *before* writing the WAL
        checkpoint record, so after a crash in that window the stable
        tree image can be ahead of the surviving checkpoint; resuming the
        checkpointed merger against it would re-emit keys the loader
        already holds.  Rebuild the tree from the entries at or below the
        checkpointed key and hand the resulting loader to the load phase.
        """
        tree = descriptor.tree
        entries = list(tree.all_entries(include_pseudo_deleted=True))
        if highest_key is None:
            if not entries:
                return
            keep = []
        else:
            if all(entry <= highest_key for entry in entries):
                return
            keep = [entry for entry in entries if entry <= highest_key]
        tree.reset()
        loader = BulkLoader(
            tree, fill_free_fraction=self.options.fill_free_fraction)
        loader.extend(keep)
        self._resume_loaders[descriptor.name] = loader
        self.system.metrics.incr("build.resumes.tree_truncated")

    def _replay_index_log(self, descriptor) -> None:
        """Re-apply every logged maintenance op for ``descriptor``.

        After a torn snapshot the tree is rebuilt from the closed sort
        runs, which reflect only the scanned records.  Every change since
        -- side-file drain applications, direct maintenance after the
        Index_Build flag flip, and recovery's compensations -- was logged
        as ``index.apply``; replaying them in LSN order on top of the
        reloaded tree repeats that history exactly (section 6).
        """
        tree = descriptor.tree
        replayed = 0
        for record in self.system.log.scan():
            if record.redo_op != "index.apply" \
                    or record.payload[IX_INDEX] != descriptor.name:
                continue
            tree.apply_logged(record.payload)
            replayed += 1
        if replayed:
            self.system.metrics.incr("build.torn_replayed_ops", replayed)


# -- the named modes: rows of data over the one builder ----------------------


class ParallelSFBuilder(SFIndexBuilder):
    """``psf``: SF whose scan is sharded unless told otherwise."""

    mode = PSF_MODE
    default_partitions = 2
    scan_done_site = "psf.scan_done"


class MultiIndexBuilder(SFIndexBuilder):
    """``multi`` (section 6.2: "creation of multiple indexes on the same
    table could be going on concurrently with a single scan being
    shared"): K indexes off one scan, each flipping AVAILABLE as soon as
    its own drain completes -- the p99 staircase measured by
    ``examples/advisor_build.py``.  The NSF discipline needs no such
    row: :class:`~repro.core.nsf.NSFIndexBuilder` takes K specs and its
    indexes are visible from descriptor creation."""

    mode = MULTI_MODE
    pipelined = True
    scan_done_site = "multibuild.scan_done"


class RebuildIndexBuilder(SFIndexBuilder):
    """``rebuild``: drop + rebuild an existing index from its sealed
    sorted runs (made by :func:`rebuild_builder`)."""

    mode = REBUILD_MODE
    key_source = SealedRuns
    run_store_prefix = "sealed"


def rebuild_builder(system, descriptor, options=None) -> RebuildIndexBuilder:
    """Builder rebuilding the *existing* ``descriptor`` in place."""
    manifest = system.sealed_runs[descriptor.name]
    spec = IndexSpec(descriptor.name, tuple(descriptor.key_columns),
                     descriptor.unique)
    builder = RebuildIndexBuilder(system, descriptor.table, [spec], options)
    builder.descriptors = [descriptor]
    builder.source.validate(descriptor, manifest)
    return builder
