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
from repro.core.base import BuilderBase, SCAN_PHASES
from repro.core.descriptor import IndexState
from repro.core.drain import SideFileDrainer
from repro.core.maintenance import SF_MODE
from repro.faultinject.sites import fault_point
from repro.sidefile import SideFile, register_sidefile_operations
from repro.sim.kernel import Delay
from repro.sort import RestartableMerger, RunStore
from repro.storage.rid import INFINITY_RID, RID


class SFIndexBuilder(SideFileDrainer, BuilderBase):
    """Side-File online index builder."""

    mode = SF_MODE

    def __init__(self, system, table, specs, options=None):
        super().__init__(system, table, specs, options)
        #: loaders prepared by resume for trees cut back to a checkpoint
        self._resume_loaders: dict[str, BulkLoader] = {}
        #: descriptors recovering from a torn stable snapshot (section 6)
        self._torn_recover: set[str] = set()

    # -- main process ------------------------------------------------------

    def _run_phases(self):
        """Build all requested indexes online: the scan (unless resumed
        past it, or a rebuild), then load and drain."""
        if self._resume_state is None:
            plan = self._start()
        else:
            plan = self._prepare_resume()
        phase, scan_start, loaded, drained, mergers, drain_positions = plan
        if phase in SCAN_PHASES:
            mergers = yield from self._scan_phase(scan_start)
            phase = "load"
        yield from self._load_and_drain(phase, loaded, drained, mergers,
                                        drain_positions)

    def _start(self):
        """A fresh build's first steps; returns what
        :meth:`_prepare_resume` returns for a resumed one: ``(phase,
        scan_start, loaded, drained, mergers, drain_positions)``."""
        self._descriptor_phase()
        self._make_sorters()
        return "scan", 0, [], [], {}, {}

    def _scan_done(self) -> None:
        # Section 3.2.2: Current-RID := infinity when the scan is done,
        # so subsequent file extensions still reach the side-file.
        self.context.current_rid = INFINITY_RID
        fault_point(self.system.metrics, "sf.scan_done")
        self._write_utility_checkpoint({
            "phase": "load-start", "loaded_indexes": []})

    def _load_and_drain(self, phase, loaded, drained, mergers,
                        drain_positions):
        """Phases 3 and 4 (shared with the parallel builder): bottom-up
        bulk load per index, then the logged side-file drain + flip."""
        if phase in ("load", "load-start"):
            for descriptor in self.descriptors:
                if descriptor.name in loaded:
                    continue
                yield from self._load_phase(
                    descriptor, mergers.get(descriptor.name), loaded,
                    loader=self._resume_loaders.pop(descriptor.name, None))
                if descriptor.name in self._torn_recover:
                    self._torn_recover.discard(descriptor.name)
                    self._replay_index_log(descriptor)
                loaded.append(descriptor.name)
                self._write_utility_checkpoint({
                    "phase": "load-start",
                    "loaded_indexes": list(loaded)})
                # Seal only after the checkpoint above: it is the first
                # one that no longer references the merge, so moving the
                # merger's output run out of the sort store can no
                # longer strand a mid-load merge manifest (a crash
                # before the seal simply skips it -- the previous sealed
                # generation, if any, stays valid).
                self._seal_sorted_runs(
                    descriptor, mergers.get(descriptor.name))
            self._mark("load_done")

        for descriptor in self.descriptors:
            if descriptor.name in drained:
                continue
            start = drain_positions.get(descriptor.name, 0)
            self.system.sidefiles[descriptor.name].force()
            self._write_utility_checkpoint({
                "phase": "drain", "index": descriptor.name,
                "position": start,
                "loaded_indexes": [d.name for d in self.descriptors],
                "drained_indexes": list(drained)})
            fault_point(self.system.metrics, "sf.drain_start")
            yield from self._drain_phase(descriptor, start, loaded, drained)
            drained.append(descriptor.name)

    # -- phase 1: descriptor without quiesce --------------------------------------

    def _descriptor_phase(self) -> None:
        """No lock, no waiting: SF's headline availability property
        (section 3.2.1: "without quiescing (update) transactions")."""
        self._create_descriptors()
        register_sidefile_operations(self.system)
        for descriptor in self.descriptors:
            sidefile = SideFile(self.system, descriptor.name)
            self.system.sidefiles[descriptor.name] = sidefile
        self._install_context(current_rid=RID(0, 0), index_build=True)
        self.system.metrics.observe("build.quiesce_wait", 0.0)
        self.system.metrics.observe("build.quiesce_hold", 0.0)
        # Initial checkpoint: a crash before the first periodic scan
        # checkpoint resumes from page zero instead of orphaning the
        # descriptor.
        self._write_utility_checkpoint({
            "phase": "scan", "next_page": 0, "sort": {}})
        self._mark("descriptor_done")
        fault_point(self.system.metrics, "sf.descriptor_done")

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

    # -- phase 3: bottom-up bulk load ------------------------------------------------------

    def _load_phase(self, descriptor, merger: Optional[RestartableMerger],
                    loaded: list, loader: Optional[BulkLoader] = None):
        tree = descriptor.tree
        self._trace_begin("load", key=f"load:{descriptor.name}",
                          index=descriptor.name)
        keys_loaded = 0
        # Keys awaiting load = what the (post-merge-pass) run store holds;
        # resumed loads see only the remaining runs, which is still the
        # right denominator for *this* phase's completion fraction.
        keys_total = self._store_for(descriptor).total_keys() \
            if self._progress is not None else 0
        if loader is None:
            # resume() degrades to a fresh loader on an empty tree, and
            # continues after the checkpointed right-most path otherwise
            # (section 3.2.4).
            loader = BulkLoader.resume(
                tree, fill_free_fraction=self.options.fill_free_fraction)
        checkpoint_every = self.options.checkpoint_every_keys
        since_checkpoint = 0
        since_yield = 0
        codec = self._codecs.get(descriptor.name)
        decode = codec.decode if codec is not None and codec.active else None
        compare_cost = self.options.key_compare_cost
        compare_units = 1 if decode is not None \
            else len(descriptor.key_columns) + 2
        merge_charged = 0
        key_cost = self.system.config.bulk_load_key_cost

        def charge(keys):
            """Admission and simulated time for ``keys`` loaded keys and
            the merge matches played to produce them."""
            nonlocal merge_charged
            yield from self._throttle(keys)
            yield Delay(keys * key_cost)
            if compare_cost:
                done = merger.comparisons
                matches, merge_charged = done - merge_charged, done
                if matches:
                    yield Delay(matches * compare_units * compare_cost)

        # The merged keys are pulled and loaded in batches, but the yield
        # and checkpoint cadence is key-exact: each batch is capped at
        # the earlier of the next 64-key yield boundary and the next
        # checkpoint boundary, so the simulated schedule is identical to
        # a key-at-a-time loop.
        while merger is not None:
            take = 64 - since_yield
            if checkpoint_every:
                slack = checkpoint_every - since_checkpoint
                if 0 < slack < take:
                    take = slack
            batch = merger.pop_many(take)
            if not batch:
                break
            loader.extend(batch if decode is None
                          else list(map(decode, batch)))
            produced = len(batch)
            keys_loaded += produced
            since_checkpoint += produced
            since_yield += produced
            if since_yield >= 64:
                yield from charge(since_yield)
                since_yield = 0
                self._progress_units(f"load:{descriptor.name}",
                                     keys_loaded, keys_total)
                fault_point(self.system.metrics, "sf.load_batch")
            if checkpoint_every and since_checkpoint >= checkpoint_every:
                # Atomic trio: force tree, checkpoint merge counters,
                # write the WAL checkpoint (section 3.2.4).
                manifest = merger.checkpoint()
                self._write_utility_checkpoint({
                    "phase": "load",
                    "index": descriptor.name,
                    "merge": manifest,
                    "highest_key": loader.highest_key,
                    "loaded_indexes": list(loaded),
                })
                since_checkpoint = 0
                self.system.metrics.incr("build.load_checkpoints")
        if since_yield:
            yield from charge(since_yield)
        loader.finish()
        tree.force()
        self._progress_phase_done(f"load:{descriptor.name}")
        self._trace_end(f"load:{descriptor.name}", keys=keys_loaded)
        self._mark(f"load_done:{descriptor.name}")
        fault_point(self.system.metrics, "sf.load_done")

    def _seal_sorted_runs(self, descriptor, merger) -> None:
        """Seal the final merge output for fast index reconstruction.

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
        codec = self._codecs.get(descriptor.name)
        system.sealed_runs[descriptor.name] = {
            "index": descriptor.name,
            "table": self.table.name,
            "key_columns": list(descriptor.key_columns),
            "unique": descriptor.unique,
            "runs": runs,
            "lengths": lengths,
            "codec": codec.to_manifest() if codec is not None else None,
        }
        system.metrics.incr("rebuild.runs_sealed", len(runs))
        self._trace_instant("rebuild.seal", index=descriptor.name,
                            runs=list(runs))
        fault_point(system.metrics, "rebuild.sealed")

    # -- phase 4: side-file drain --------------------------------------------
    #
    # ``_drain_phase`` / ``_drain_sorted_chunk`` live in the shared
    # :class:`repro.core.drain.SideFileDrainer` mixin so the parallel
    # builder reuses the identical drain + atomic flag flip.

    # -- restart (section 3.2.4 / 3.2.5) ------------------------------------------------------

    def _adopt_checkpoint(self, utility_state: dict) -> None:
        register_sidefile_operations(self.system)

    def _prepare_resume(self):
        state = self._resume_state
        phase = state.get("phase", "scan")
        loaded = list(state.get("loaded_indexes", []))
        drained = list(state.get("drained_indexes", []))
        mergers: dict[str, RestartableMerger] = {}
        drain_positions: dict[str, int] = {}
        if phase == "scan":
            return phase, self._resume_scan(), loaded, drained, mergers, \
                drain_positions

        checkpoint_name = state.get("index") if phase == "load" else None
        if phase == "drain":
            loaded = [d.name for d in self.descriptors]
            drain_positions[state["index"]] = state.get("position", 0)

        for descriptor in self.descriptors:
            if not descriptor.tree.media_damaged:
                continue
            name = descriptor.name
            drain_positions[name] = self._torn_fallback(
                descriptor, descriptor.state is IndexState.AVAILABLE)
            if name in loaded:
                loaded.remove(name)
            if name in drained:
                drained.remove(name)
            if name == checkpoint_name:
                checkpoint_name = None

        for descriptor in self.descriptors:
            name = descriptor.name
            if name == checkpoint_name:
                mergers[name] = self._resume_load(
                    descriptor, state["merge"], state.get("highest_key"))
            elif name not in loaded:
                mergers[name] = self._restart_load(descriptor)

        if len(loaded) == len(self.descriptors):
            self.system.metrics.incr("build.resumes.drain")
            return "drain", 0, loaded, drained, mergers, drain_positions
        self.system.metrics.incr("build.resumes.load")
        return "load", 0, loaded, drained, mergers, drain_positions

    # -- resume helpers -----------------------------------------------------

    def _resume_scan(self) -> int:
        self._reset_torn_shells()
        return super()._resume_scan()

    def _reset_torn_shells(self) -> None:
        """A torn snapshot during the scan phase lost only an empty tree
        image; normalize the shell so the load starts clean."""
        for descriptor in self.descriptors:
            if descriptor.tree.media_damaged:
                self._reset_tree(descriptor.tree)

    def _torn_fallback(self, descriptor, flipped: bool) -> int:
        """Section 6 fallback for one index past the scan phase.

        A torn stable snapshot means nothing of the tree survived, and
        an SF build cannot be redone from the log (the bulk load is
        unlogged).  Pull the descriptor back into the load phase: rebuild
        from the forced, closed sort runs, replay the logged maintenance
        (:meth:`_replay_index_log`), then re-drain the side-file from
        the returned position.  If the Index_Build flag had already been
        reset (``flipped``), the side-file was fully drained and later
        changes went straight to the index (they exist only as log
        records); skip re-draining that frozen prefix or it would
        clobber the replayed direct maintenance.
        """
        sidefile = self.system.sidefiles.get(descriptor.name)
        position = len(sidefile.entries) \
            if flipped and sidefile is not None else 0
        self._reset_tree(descriptor.tree)
        descriptor.state = IndexState.BUILDING
        if self.context is not None \
                and descriptor not in self.context.descriptors:
            self.context.descriptors.append(descriptor)
        self._torn_recover.add(descriptor.name)
        self.system.metrics.incr("build.resumes.torn_fallback")
        return position

    def _resume_load(self, descriptor, merge_manifest: dict, highest_key):
        """Merger for a load resumed from its merge checkpoint.

        The tree may hold keys above the checkpoint (its snapshot was
        forced before the checkpoint record that never landed); "the
        index pages can be reset in such a way that the keys higher than
        the checkpointed key disappear" (section 3.2.4)."""
        merger = RestartableMerger.restore(self._store_for(descriptor),
                                           merge_manifest)
        self._align_tree_with_checkpoint(descriptor, highest_key)
        return merger

    def _restart_load(self, descriptor):
        """Merger for a load with no merge checkpoint: the whole load
        restarts from the closed runs, so any surviving tree content (the
        checkpoint trio forces *every* build tree, so even a pending
        index may hold a partial load) must go."""
        tree = descriptor.tree
        if tree.root is not None \
                and tree.key_count(include_pseudo_deleted=True):
            self._reset_tree(tree)
        return self._merger_from_closed_runs(descriptor)

    def _reset_tree(self, tree) -> None:
        """Return ``tree`` to the empty state for a from-scratch rebuild."""
        tree.pages.clear()
        tree.root = None
        tree._next_page_no = 0
        tree.structure_version += 1
        tree.durable_lsn = 0
        tree.media_damaged = False

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
            bound = (highest_key[0], RID(*highest_key[1]))
            if all(entry.composite <= bound for entry in entries):
                return
            keep = [entry for entry in entries if entry.composite <= bound]
        self._reset_tree(tree)
        loader = BulkLoader(
            tree, fill_free_fraction=self.options.fill_free_fraction)
        loader.extend([entry.composite for entry in keep])
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
            if record.redo is None:
                continue
            op_name, args = record.redo
            if op_name != "index.apply" \
                    or args.get("index") != descriptor.name:
                continue
            action = args["action"]
            if action in ("insert_many", "remove_many"):
                tree.apply_logical(action, None, (0, 0), extra=args)
            else:
                tree.apply_logical(action, args["key_value"],
                                   args["rid"], extra=args)
            replayed += 1
        if replayed:
            self.system.metrics.incr("build.torn_replayed_ops", replayed)
