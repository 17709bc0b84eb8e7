"""Algorithm PSF: partitioned parallel side-file index build.

The paper's SF (section 3) is single-scanner: one IB process scans the
heap, feeds a pipelined sort, bulk-loads bottom-up, drains the side-file.
Its own cost analysis (section 6) shows the scan+sort phase dominating --
exactly the part that partitions cleanly.  PSF range-partitions the
table's page space into P shards and runs the paper's phase 2 once per
shard, concurrently:

1. **Descriptor creation without quiesce** -- as SF, plus a
   :class:`~repro.sidefile.ScanFrontier` (one Current-RID per shard)
   installed in the build context.  Updaters route maintenance with the
   generalized test ``Target-RID < frontier[shard_of(page)]`` (Figure 1,
   applied shard-wise).
2. **Parallel scan + run formation** -- one kernel process per shard
   scans its page range (the last shard chases end of file, section
   3.2.2), pushes keys into that shard's replacement-selection sorter,
   and advances its own frontier entry under the page latch.  Each worker
   checkpoints *independently*: it updates its slot in a shared build
   manifest (per-shard sort checkpoints + scan positions) and writes the
   whole manifest as one utility checkpoint, so a crash resumes only the
   unfinished shards.  Workers rendezvous at a kernel
   :class:`~repro.sim.kernel.Barrier`.
3. **Parallel shard merge** -- one worker per shard collapses its runs to
   ``merge_fanin // P`` runs (simulated merge cost, crash-safe at pass
   granularity -- see :mod:`repro.parallel.merge`), then the coordinator
   builds the usual streaming final merger over all shards' survivors.
4. **Bulk load + side-file drain** -- byte-for-byte SF's phases 3 and 4,
   inherited from :class:`~repro.core.sf.SFIndexBuilder` and the shared
   :class:`~repro.core.drain.SideFileDrainer`.

Because ``Delay`` models I/O, shard scans overlap on the simulated clock
and the scan+sort phase shortens near-linearly in P until the serial
load+drain tail dominates (Amdahl); ``bench/perf.py``'s ``parallel_sf``
scenarios record the sweep.
"""

from __future__ import annotations

from typing import Optional

from repro.core.maintenance import PSF_MODE
from repro.core.sf import SFIndexBuilder
from repro.faultinject.sites import fault_point
from repro.parallel.merge import sim_merge_until
from repro.sidefile import ScanFrontier, SideFile, partition_pages, \
    register_sidefile_operations
from repro.sim.kernel import Barrier, ProcessGroup
from repro.sort import RunFormation
from repro.storage.rid import INFINITY_RID, RID

#: default shard count when neither the constructor nor the options say
DEFAULT_PARTITIONS = 2


class ParallelSFBuilder(SFIndexBuilder):
    """Partitioned parallel Side-File online index builder."""

    mode = PSF_MODE

    def __init__(self, system, table, specs, options=None,
                 partitions: Optional[int] = None):
        super().__init__(system, table, specs, options)
        if partitions is None:
            partitions = self.options.partitions or DEFAULT_PARTITIONS
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        self.partitions = partitions
        #: shard id -> {"done", "next_page", "ckpt_page", "sort", "runs"};
        #: the shared build manifest every worker checkpoint rewrites
        self._shard_states: dict[int, dict] = {}
        #: shard id -> {index name -> RunFormation}
        self._shard_sorters: dict[int, dict[str, RunFormation]] = {}

    @property
    def _shard_workspace(self) -> int:
        """Replacement-selection slots per shard: the serial workspace is
        split across shards so total sort memory stays comparable."""
        return max(2, self.sort_workspace // self.partitions)

    # -- main process (the coordinator) --------------------------------------

    def _build_span_attrs(self) -> dict:
        return {"partitions": self.partitions}

    def _start(self):
        self._descriptor_phase()
        return "pscan", 0, [], [], {}, {}

    def _scan_phase(self, _scan_start: int = 0):
        """Phases 2 and 3a: every unfinished shard scans from its own
        manifest slot, then the shard merges run in parallel."""
        yield from self._parallel_scan_phase()
        # Every shard frontier is at infinity now; keep the scalar
        # Current-RID in sync for the serial-path consumers (§3.2.2).
        self.context.current_rid = INFINITY_RID
        self._mark("scan_done")
        self._progress_phase_done("scan")
        fault_point(self.system.metrics, "psf.scan_done")
        # Transition checkpoint, exactly as SF: from here a crash
        # resumes by rebuilding the merge from forced, closed runs --
        # which is also the crash contract of the parallel shard
        # merges below (see repro.parallel.merge).
        self._write_utility_checkpoint({
            "phase": "load-start", "loaded_indexes": []})
        mergers = yield from self._parallel_merge_phase()
        self._mark("pmerge_done")
        self._progress_phase_done("merge")
        return mergers

    # -- phase 1: descriptor + frontier without quiesce ---------------------

    def _descriptor_phase(self) -> None:
        self._create_descriptors()
        register_sidefile_operations(self.system)
        for descriptor in self.descriptors:
            self.system.sidefiles[descriptor.name] = SideFile(
                self.system, descriptor.name)
        frontier = ScanFrontier(
            partition_pages(self.table.page_count, self.partitions))
        self._install_context(current_rid=RID(0, 0), index_build=True,
                              frontier=frontier)
        self.system.metrics.observe("build.quiesce_wait", 0.0)
        self.system.metrics.observe("build.quiesce_hold", 0.0)
        for partition in frontier.partitions:
            state = {"done": False, "next_page": partition.start,
                     "ckpt_page": partition.start, "sort": {}, "runs": {}}
            self._shard_states[partition.index] = state
            self._shard_sorters[partition.index] = {
                d.name: self._new_sorter(d, workspace=self._shard_workspace)
                for d in self.descriptors}
            self.system.metrics.observe(
                f"psf.shard_pages.{partition.index}", partition.pages)
        self._checkpoint_shards()
        self._mark("descriptor_done")
        fault_point(self.system.metrics, "psf.descriptor_done")

    # -- phase 2: partitioned parallel scan ---------------------------------

    def _parallel_scan_phase(self):
        """Spawn one scan worker per unfinished shard; rendezvous at the
        barrier, then join (propagating worker errors)."""
        sim = self.system.sim
        pending = [shard for shard, state in sorted(self._shard_states.items())
                   if not state["done"]]
        if not pending:
            return
        self._progress_scan(0, self.table.page_count)
        barrier = Barrier(sim, parties=len(pending) + 1)
        group = ProcessGroup(sim, name="psf-scan")
        self._trace_begin("scan", workers=len(pending))
        for shard in pending:
            group.spawn(self._shard_worker(shard, barrier),
                        name=f"psf-worker-{shard}")
        self.system.metrics.incr("psf.scan_workers", len(pending))
        yield from barrier.wait()
        fault_point(self.system.metrics, "psf.barrier")
        yield from group.join_all()
        self._trace_end("scan")

    def _shard_worker(self, shard: int, barrier: Barrier):
        """One shard's process: scan -> seal runs -> checkpoint -> barrier."""
        started = self.system.sim.now
        self._trace_begin("shard-scan", key=f"shard-scan:{shard}",
                          parent=self._trace_span_id("scan"), shard=shard)
        frontier = self.context.frontier
        partition = frontier.partitions[shard]
        table = self.table
        state = self._shard_states[shard]
        sorters = self._shard_sorters[shard]
        # The shared scan loop with this shard's parameters: its manifest
        # slot as the cursor, its own sorters, its own frontier entry
        # advanced under the page latch (section 3.1's protocol, per
        # shard).  The last shard chases the end of file: extensions made
        # ahead of its frontier produced no side-file entries (§3.2.2).
        yield from self._scan_pages(
            state,
            (lambda: table.page_count) if partition.chases_eof
            else (lambda: partition.end),
            sorters,
            advance=lambda page: frontier.advance(
                shard, RID(page.page_id.page_no + 1, 0)),
            checkpoint=lambda next_page: self._checkpoint_shard_progress(
                shard, next_page),
            page_site="psf.worker.scan_page",
            page_counter=f"psf.pages_scanned.{shard}")
        # Seal this shard's sort: runs closed + forced, names into the
        # manifest; the shard's frontier jumps to infinity (its whole
        # range is now extracted) -- all synchronous, then checkpointed.
        state["runs"] = {name: [run.name for run in sorter.finish()]
                         for name, sorter in sorters.items()}
        state["sort"] = {}
        state["done"] = True
        frontier.finish(shard)
        first = next(iter(sorters.values()), None)
        metrics = self.system.metrics
        metrics.observe(f"psf.shard_keys.{shard}",
                        first.keys_pushed if first is not None else 0)
        metrics.observe(f"psf.shard_scan_time.{shard}",
                        self.system.sim.now - started)
        fault_point(metrics, "psf.worker_done")
        self._checkpoint_shards()
        arrived = self.system.sim.now
        yield from barrier.wait()
        # The gap between arriving at the rendezvous and the barrier
        # releasing is pure skew: straggler shards show up as near-zero
        # barrier_wait, early finishers as large ones.
        self._trace_end(f"shard-scan:{shard}",
                        barrier_wait=self.system.sim.now - arrived)

    # -- independent worker checkpoints -------------------------------------

    def _checkpoint_shard_progress(self, shard: int, next_page: int) -> None:
        """One worker's sort-phase checkpoint (section 5.1, per shard):
        drain + force this shard's runs, record the manifests and the
        restart scan position, rewrite the shared build manifest."""
        fault_point(self.system.metrics, "psf.worker.checkpoint")
        state = self._shard_states[shard]
        state["sort"] = {
            name: sorter.checkpoint(scan_position=next_page)
            for name, sorter in self._shard_sorters[shard].items()}
        state["next_page"] = next_page
        state["ckpt_page"] = next_page
        self._checkpoint_shards()
        self.system.metrics.incr("build.scan_checkpoints")

    def _checkpoint_shards(self) -> None:
        """Write the whole build manifest as one utility checkpoint.

        Synchronous, so the manifest is globally consistent: every other
        shard's slot is exactly its own last checkpoint (slots only
        change inside a worker's synchronous checkpoint step).
        """
        shards = {
            shard: {"done": state["done"],
                    "next_page": state["next_page"],
                    "ckpt_page": state["ckpt_page"],
                    "sort": dict(state["sort"]),
                    "runs": {name: list(names)
                             for name, names in state["runs"].items()}}
            for shard, state in self._shard_states.items()}
        self._write_utility_checkpoint({
            "phase": "pscan",
            "partitions": self.partitions,
            "shards": shards,
        })
        self.system.metrics.incr("psf.manifest_checkpoints")
        fault_point(self.system.metrics, "psf.manifest_checkpoint")

    # -- phase 3a: parallel shard merge -------------------------------------

    def _parallel_merge_phase(self):
        """Collapse each shard's runs concurrently, then build the final
        streaming merger per index over all shards' survivors."""
        sim = self.system.sim
        shards = sorted(self._shard_states)
        per_shard = max(1, self.merge_fanin // max(1, len(shards)))
        group = ProcessGroup(sim, name="psf-merge")
        self._trace_begin("merge", workers=len(shards))
        for shard in shards:
            group.spawn(self._shard_merge_worker(shard, per_shard),
                        name=f"psf-merge-{shard}")
        yield from group.join_all()
        self._trace_end("merge")
        fault_point(self.system.metrics, "psf.merge_done")
        mergers = {}
        for descriptor in self.descriptors:
            store = self._store_for(descriptor)
            runs = []
            for shard in shards:
                names = self._shard_states[shard]["runs"].get(
                    descriptor.name, [])
                runs.extend(store.get(name) for name in names)
            mergers[descriptor.name] = self._final_merger(descriptor, runs)
        return mergers

    def _shard_merge_worker(self, shard: int, target: int):
        """One shard's merge process: reduce its runs per index down to
        ``target`` with simulated-cost, crash-safe passes."""
        state = self._shard_states[shard]
        self._trace_begin("shard-merge", key=f"shard-merge:{shard}",
                          parent=self._trace_span_id("merge"), shard=shard)
        for descriptor in self.descriptors:
            store = self._store_for(descriptor)
            runs = [store.get(name)
                    for name in state["runs"].get(descriptor.name, [])]
            merged = yield from sim_merge_until(
                self.system, store, runs, self.merge_fanin, target,
                shard=shard)
            state["runs"][descriptor.name] = [run.name for run in merged]
        self._trace_end(f"shard-merge:{shard}")
        fault_point(self.system.metrics, "psf.merge_shard_done")

    # -- restart ------------------------------------------------------------

    def _adopt_checkpoint(self, utility_state: dict) -> None:
        super()._adopt_checkpoint(utility_state)
        # ``partitions`` rides in the scan-phase manifest only; later
        # checkpoints still carry the frontier's partition ranges.
        self.partitions = utility_state.get("partitions") \
            or len(self.context.frontier.partitions)

    def _prepare_resume(self):
        state = self._resume_state
        if state.get("phase") != "pscan":
            # load-start / load / drain: SF's resume path applies
            # verbatim (rebuild mergers from surviving closed runs, torn
            # fallback, drain positions); the recovered frontier is
            # already sealed.
            return super()._prepare_resume()
        # pscan: restore only the unfinished shards.  The recovered
        # frontier holds each shard's own last checkpointed position, so
        # visibility during recovery matched the scan restart positions
        # computed here.
        self._reset_torn_shells()
        frontier = self.context.frontier
        keep: list[str] = []
        self._shard_states = {}
        self._shard_sorters = {}
        resumed_shards = 0
        for shard_key, raw in state.get("shards", {}).items():
            shard = int(shard_key)
            shard_state = {"done": bool(raw.get("done")),
                           "next_page": raw.get("next_page", 0),
                           "ckpt_page": raw.get("ckpt_page", 0),
                           "sort": dict(raw.get("sort", {})),
                           "runs": {name: list(names) for name, names
                                    in raw.get("runs", {}).items()}}
            self._shard_states[shard] = shard_state
            if shard_state["done"]:
                for names in shard_state["runs"].values():
                    keep.extend(names)
                continue
            resumed_shards += 1
            self._shard_sorters[shard], restart_page = \
                self._restore_sorters(shard_state["sort"],
                                      workspace=self._shard_workspace,
                                      prune=False)
            for manifest in shard_state["sort"].values():
                keep.extend(manifest["runs"])
            if restart_page is None:
                restart_page = frontier.partitions[shard].start
            shard_state["next_page"] = restart_page
            shard_state["ckpt_page"] = restart_page
            frontier.current[shard] = RID(restart_page, 0)
        # One union prune per store: discard runs no checkpointed shard
        # references ("discard any output sorted streams that did not
        # exist as of the last checkpoint", section 5.1, shard-wise).
        for descriptor in self.descriptors:
            self._store_for(descriptor).keep_only(keep)
        self.system.metrics.incr("build.resumes.scan")
        self.system.metrics.incr("psf.resumed_shards", resumed_shards)
        self.system.metrics.incr(
            "psf.skipped_shards", len(self._shard_states) - resumed_shards)
        return "pscan", 0, [], [], {}, {}
