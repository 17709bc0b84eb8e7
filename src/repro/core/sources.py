"""Key sources: where a build's sorted keys come from.

The paper states SF's variations as changes of *input*, not of
algorithm, and :class:`~repro.core.base.BuilderBase` is built the same
way: everything up to "one final merger per index" is a key source, and
the per-index steps that follow (NSF's insert; SF's load, drain and flag
flip) never ask which one ran.

* :class:`HeapScan` -- sections 2.2.2 / 3.2.2: the data pages scanned
  after the mode's descriptor step (NSF's short quiesce, SF's none); an
  SF build advances Current-RID under each page latch, an NSF build may
  read in parallel (``parallel_readers``).
* :class:`ShardScan` -- section 2.2.2's "the data pages may be read in
  parallel using multiple processes", made compatible with Current-RID:
  the page space is range-partitioned into P shards, each with its own
  scan worker, sorter and frontier entry
  (:class:`~repro.sidefile.ScanFrontier`); updaters route maintenance
  with ``Target-RID < frontier[shard_of(page)]`` (Figure 1, applied
  shard-wise).  Because ``Delay`` models I/O the shard scans overlap on
  the simulated clock and the scan shortens near-linearly in P until the
  serial load + drain tail dominates (``parallel_sf`` bench rows).
* :class:`SealedRuns` -- fast index reconstruction ("Compressed Key
  Sort and Fast Index Reconstruction", PAPERS.md): every finished build
  parks its fully merged final run in a ``sealed:{index}`` store, and a
  drop + rebuild of that index loads from it with no table scan, no run
  formation and zero data-page reads (experiment E25).
* :class:`IotScan` -- section 6.2: a range scan of an index-organized
  table's primary index, "the current-key as the scan position" in
  place of Current-RID.

A source owns the utility-checkpoint phase written while it is still
producing keys (``scan``, ``pscan``), its fields and its resume; past
that the per-index manifest is the only progress state
(:class:`~repro.core.base.BuilderBase`).
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.descriptor import IndexState
from repro.core.shard_merge import sim_merge_until
from repro.errors import StorageError
from repro.faultinject.sites import fault_point
from repro.sidefile import ScanFrontier, SideFile, partition_pages, \
    register_sidefile_operations
from repro.sim.kernel import Barrier, Delay, ProcessGroup
from repro.sort import RunFormation
from repro.storage.rid import INFINITY_RID, RID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import BuilderBase


class KeySource:
    """One way of producing the final merger of every index."""

    def __init__(self, builder: "BuilderBase") -> None:
        self.builder = builder

    def start(self):
        """Generator: a fresh build's phase 1 -- descriptors (or reset),
        side-files, build context and the first utility checkpoint."""
        raise NotImplementedError

    def resume(self, state: dict) -> bool:
        """Adopt the utility checkpoint ``state``; True iff it was taken
        in the source's own phase, so :meth:`mergers` has to run again."""
        return False

    def mergers(self):
        """Generator: produce the keys; returns ``{index name: final
        merger}``."""
        raise NotImplementedError

    def loaded(self, descriptor) -> None:
        """Hook: ``descriptor``'s bulk load just finished."""

    def rejoin(self, descriptor) -> None:
        """Hook: a resumed build still owes ``descriptor`` a step."""


class HeapScan(KeySource):
    """The serial data-page scan under Current-RID (section 3.2.2)."""

    #: where the scan (re)starts: a resumed build's checkpointed position
    start_page = 0

    def start(self):
        builder = self.builder
        yield from builder._descriptor_phase()
        # Initial checkpoint: a crash before the first periodic scan
        # checkpoint resumes from page zero instead of orphaning the
        # descriptor.
        builder._write_utility_checkpoint({
            "phase": "scan", "next_page": 0, "sort": {}})
        builder._mark("descriptor_done")
        fault_point(builder.system.metrics, builder.descriptor_done_site)
        builder._make_sorters()

    def resume(self, state: dict) -> bool:
        if state["phase"] != "scan":
            return False
        builder = self.builder
        builder._reset_torn_shells()
        builder._sorters, _position = builder._restore_sorters(
            state.get("sort", {}))
        builder.system.metrics.incr("build.resumes.scan")
        self.start_page = state.get("next_page", 0)
        return True

    def mergers(self):
        builder = self.builder
        return builder._scan_phase(  # the generator itself: no extra frame
            self.start_page, readers=builder.options.parallel_readers)


class ShardScan(KeySource):
    """P page-range shards scanned, sorted and pre-merged concurrently.

    Each worker checkpoints *independently*: it updates its slot in a
    shared shard manifest (per-shard sort checkpoints + scan positions)
    and writes the whole manifest as one ``pscan`` utility checkpoint,
    so a crash resumes only the unfinished shards.  Workers rendezvous
    at a kernel :class:`~repro.sim.kernel.Barrier`; then one merge
    worker per shard collapses its runs to ``merge_fanin // P``
    (simulated merge cost, crash-safe at pass granularity -- see
    :mod:`repro.core.shard_merge`) before the usual streaming final
    merger is built over all shards' survivors.
    """

    def __init__(self, builder) -> None:
        super().__init__(builder)
        #: shard id -> {"done", "next_page", "ckpt_page", "sort", "runs"};
        #: the shared shard manifest every worker checkpoint rewrites
        self._shard_states: dict[int, dict] = {}
        #: shard id -> {index name -> RunFormation}
        self._shard_sorters: dict[int, dict[str, RunFormation]] = {}

    @property
    def _shard_workspace(self) -> int:
        """Replacement-selection slots per shard: the serial workspace is
        split across shards so total sort memory stays comparable."""
        return max(2, self.builder.system.config.sort_workspace
                   // self.builder.partitions)

    # -- phase 1: descriptor + frontier without quiesce ---------------------

    def start(self):
        builder = self.builder
        metrics = builder.system.metrics
        frontier = ScanFrontier(
            partition_pages(builder.table.page_count, builder.partitions))
        yield from builder._descriptor_phase(frontier)
        for partition in frontier.partitions:
            state = {"done": False, "next_page": partition.start,
                     "ckpt_page": partition.start, "sort": {}, "runs": {}}
            self._shard_states[partition.index] = state
            self._shard_sorters[partition.index] = {
                d.name: builder._new_sorter(d,
                                            workspace=self._shard_workspace)
                for d in builder.descriptors}
            metrics.observe(
                f"psf.shard_pages.{partition.index}", partition.pages)
        self._checkpoint_shards()
        builder._mark("descriptor_done")
        fault_point(metrics, "psf.descriptor_done")

    # -- phases 2 and 3a: every unfinished shard scans, then all merge ------

    def mergers(self):
        builder = self.builder
        yield from self._parallel_scan_phase()
        self._shard_sorters.clear()  # the runs are named in the manifest
        builder._mark("scan_done")
        builder.obs.end("scan")
        # The transition checkpoint comes before the shard merges: from
        # here a crash resumes by rebuilding the merge from forced,
        # closed runs -- which is also the crash contract of the merges
        # (see repro.core.shard_merge).
        builder._scan_done()
        mergers = yield from self._parallel_merge_phase()
        builder._mark("pmerge_done")
        return mergers

    def _parallel_scan_phase(self):
        """Spawn one scan worker per unfinished shard; rendezvous at the
        barrier, then join (propagating worker errors)."""
        builder = self.builder
        sim = builder.system.sim
        pending = [shard for shard, state in sorted(self._shard_states.items())
                   if not state["done"]]
        if not pending:
            return
        barrier = Barrier(sim, parties=len(pending) + 1)
        group = ProcessGroup(sim, name="psf-scan")
        builder.obs.begin("scan", workers=len(pending))
        for shard in pending:
            group.spawn(self._shard_worker(shard, barrier),
                        name=f"psf-worker-{shard}")
        builder.system.metrics.incr("psf.scan_workers", len(pending))
        yield from barrier.wait()
        fault_point(builder.system.metrics, "psf.barrier")
        yield from group.join_all()

    def _shard_worker(self, shard: int, barrier: Barrier):
        """One shard's process: scan -> seal runs -> checkpoint -> barrier."""
        builder = self.builder
        system = builder.system
        started = system.sim.now
        builder.obs.begin("shard-scan", key=f"shard-scan:{shard}",
                          parent="scan", shard=shard)
        frontier = builder.context.frontier
        partition = frontier.partitions[shard]
        table = builder.table
        state = self._shard_states[shard]
        sorters = self._shard_sorters[shard]
        # The shared scan loop with this shard's parameters: its manifest
        # slot as the cursor, its own sorters, its own frontier entry
        # advanced under the page latch (section 3.1's protocol, per
        # shard).  The last shard chases the end of file: extensions made
        # ahead of its frontier produced no side-file entries (§3.2.2).
        yield from builder._scan_pages(
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
        metrics = system.metrics
        metrics.observe(f"psf.shard_keys.{shard}",
                        first.keys_pushed if first is not None else 0)
        metrics.observe(f"psf.shard_scan_time.{shard}",
                        system.sim.now - started)
        fault_point(metrics, "psf.worker_done")
        self._checkpoint_shards()
        arrived = system.sim.now
        yield from barrier.wait()
        # The gap between arriving at the rendezvous and the barrier
        # releasing is pure skew: straggler shards show up as near-zero
        # barrier_wait, early finishers as large ones.
        builder.obs.end(f"shard-scan:{shard}",
                        barrier_wait=system.sim.now - arrived)

    # -- independent worker checkpoints -------------------------------------

    def _checkpoint_shard_progress(self, shard: int, next_page: int) -> None:
        """One worker's sort-phase checkpoint (section 5.1, per shard):
        drain + force this shard's runs, record the manifests and the
        restart scan position, rewrite the shared shard manifest."""
        metrics = self.builder.system.metrics
        fault_point(metrics, "psf.worker.checkpoint")
        state = self._shard_states[shard]
        state["sort"] = {
            name: sorter.checkpoint(scan_position=next_page)
            for name, sorter in self._shard_sorters[shard].items()}
        state["next_page"] = next_page
        state["ckpt_page"] = next_page
        self._checkpoint_shards()
        metrics.incr("build.scan_checkpoints")

    def _checkpoint_shards(self) -> None:
        """Write the whole shard manifest as one utility checkpoint.

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
        self.builder._write_utility_checkpoint({
            "phase": "pscan", "shards": shards})
        metrics = self.builder.system.metrics
        metrics.incr("psf.manifest_checkpoints")
        fault_point(metrics, "psf.manifest_checkpoint")

    # -- phase 3a: parallel shard merge -------------------------------------

    def _parallel_merge_phase(self):
        """Collapse each shard's runs concurrently, then build the final
        streaming merger per index over all shards' survivors."""
        builder = self.builder
        shards = sorted(self._shard_states)
        fanin = builder.system.config.merge_fanin
        per_shard = max(1, fanin // max(1, len(shards)))
        group = ProcessGroup(builder.system.sim, name="psf-merge")
        builder.obs.begin("merge", workers=len(shards))
        for shard in shards:
            group.spawn(self._shard_merge_worker(shard, per_shard),
                        name=f"psf-merge-{shard}")
        yield from group.join_all()
        builder.obs.end("merge")
        fault_point(builder.system.metrics, "psf.merge_done")
        builder._drop_cancelled()  # no final merge over a dropped store
        mergers = {}
        for descriptor in builder.descriptors:
            store = builder._store_for(descriptor)
            runs = []
            for shard in shards:
                names = self._shard_states[shard]["runs"].get(
                    descriptor.name, [])
                runs.extend(store.get(name) for name in names)
            mergers[descriptor.name] = builder._final_merger(descriptor, runs)
        return mergers

    def _shard_merge_worker(self, shard: int, target: int):
        """One shard's merge process: reduce its runs per index down to
        ``target`` with simulated-cost, crash-safe passes."""
        builder = self.builder
        state = self._shard_states[shard]
        builder.obs.begin("shard-merge", key=f"shard-merge:{shard}",
                          parent="merge", shard=shard)
        for descriptor in builder.descriptors:
            if descriptor.state is IndexState.CANCELLED:
                continue  # dropped while this worker merged another
            store = builder._store_for(descriptor)
            runs = [store.get(name)
                    for name in state["runs"].get(descriptor.name, [])]
            merged = yield from sim_merge_until(
                builder.system, store, runs,
                builder.system.config.merge_fanin, target,
                shard=shard)
            state["runs"][descriptor.name] = [run.name for run in merged]
        builder.obs.end(f"shard-merge:{shard}")
        fault_point(builder.system.metrics, "psf.merge_shard_done")

    # -- restart ------------------------------------------------------------

    def resume(self, state: dict) -> bool:
        """``pscan``: restore only the unfinished shards.  The recovered
        frontier holds each shard's own last checkpointed position, so
        visibility during recovery matched the scan restart positions
        computed here."""
        if state["phase"] != "pscan":
            return False
        builder = self.builder
        builder._reset_torn_shells()
        frontier = builder.context.frontier
        keep: list[str] = []
        resumed_shards = 0
        for shard_key, raw in state["shards"].items():
            shard = int(shard_key)
            shard_state = {"done": bool(raw["done"]),
                           "next_page": raw["next_page"],
                           "ckpt_page": raw["ckpt_page"],
                           "sort": dict(raw["sort"]),
                           "runs": {name: list(names) for name, names
                                    in raw["runs"].items()}}
            self._shard_states[shard] = shard_state
            if shard_state["done"]:
                for names in shard_state["runs"].values():
                    keep.extend(names)
                continue
            resumed_shards += 1
            self._shard_sorters[shard], restart_page = \
                builder._restore_sorters(shard_state["sort"],
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
        for descriptor in builder.descriptors:
            builder._store_for(descriptor).keep_only(keep)
        metrics = builder.system.metrics
        metrics.incr("build.resumes.scan")
        metrics.incr("psf.resumed_shards", resumed_shards)
        metrics.incr("psf.skipped_shards",
                     len(self._shard_states) - resumed_shards)
        return True


class SealedRuns(KeySource):
    """The sealed final run of the index's last build, reused as is.

    1. **Reset** -- checkpoint the rebuild *first* (so a crash can never
       leave a BUILDING descriptor the checkpoint does not know about --
       orphan discard would detach it, destroying a live index), then in
       one atomic step flip the descriptor to BUILDING, drop the old
       tree pages, and install a build context with Current-RID already
       at infinity: the sealed run covers every record, so all
       concurrent maintenance routes straight to a side-file (section
       3.2.2's end-of-scan state).
    2. **Load** -- SF's phase 3 from the sealed run, then replay the
       logged ``index.apply`` history on top: the sealed run reflects
       the table as of the *original* build's scan, and everything
       since -- the original drain, post-flip direct maintenance,
       earlier rebuilds -- was logged (the same mechanism as the
       section 6 torn-snapshot fallback).
    3. **Drain + flip** -- SF's phase 4, never below the manifest's
       ``floor``: the side-file length recorded at reset.  The prefix
       below it was applied -- and logged -- by the original build, and
       re-applying a non-suffix does not converge.
    """

    def validate(self, descriptor, manifest: dict) -> None:
        """Fail fast on a stale or torn sealed manifest."""
        builder = self.builder
        name = descriptor.name
        if manifest.get("table") != builder.table.name:
            raise StorageError(
                f"sealed runs for {name!r} belong to table "
                f"{manifest.get('table')!r}, not {builder.table.name!r}")
        if tuple(manifest.get("key_columns", ())) \
                != tuple(descriptor.key_columns):
            raise StorageError(
                f"sealed runs for {name!r} were sorted on columns "
                f"{manifest.get('key_columns')!r}; the index now keys on "
                f"{list(descriptor.key_columns)!r}")
        store = builder.system.run_stores.get(f"sealed:{name}")
        if store is None:
            raise StorageError(
                f"sealed run store for {name!r} is missing")
        for run_name in manifest.get("runs", []):
            run = store.runs.get(run_name)
            if run is None:
                raise StorageError(
                    f"sealed run {run_name!r} for {name!r} is missing")
            if not run.closed:
                raise StorageError(
                    f"sealed run {run_name!r} for {name!r} is not closed")
            expected = manifest.get("lengths", {}).get(run_name)
            if expected is not None and expected != len(run):
                raise StorageError(
                    f"sealed run {run_name!r} for {name!r} holds "
                    f"{len(run)} keys, manifest expects {expected} "
                    "(torn or stale seal)")

    # -- phase 1: checkpoint, then atomic flip + drop -----------------------

    def start(self):
        yield from ()  # no simulated time: no descriptor is created
        builder = self.builder
        system = builder.system
        register_sidefile_operations(system)
        for descriptor in builder.descriptors:
            sidefile = system.sidefiles.get(descriptor.name)
            if sidefile is None:
                sidefile = SideFile(system, descriptor.name)
                system.sidefiles[descriptor.name] = sidefile
            builder._manifest[descriptor.name]["floor"] = \
                len(sidefile.entries)
        # Checkpoint BEFORE the flip: restart's orphan discard detaches
        # any BUILDING descriptor the surviving checkpoint never recorded
        # -- correct for a fresh build's throwaway descriptor, fatal for
        # a rebuild of a live index.  Registering first means a crash in
        # the gap sees either an AVAILABLE index (rebuild never started)
        # or a BUILDING descriptor the checkpoint knows how to resume.
        builder._write_utility_checkpoint({"phase": "reset"})
        fault_point(system.metrics, "rebuild.reset")
        # Atomic flip + drop (no yields): queries stop seeing the index,
        # maintenance starts routing to the side-file, and the old tree
        # pages vanish in the same step.
        for descriptor in builder.descriptors:
            descriptor.state = IndexState.BUILDING
            descriptor.build_mode = builder.mode
            descriptor.tree.reset()
            descriptor.tree.force()  # the empty tree is the stable image
        builder._install_context(current_rid=INFINITY_RID, index_build=True)
        # SF's headline property holds for the rebuild too: no quiesce.
        system.metrics.observe("build.quiesce_wait", 0.0)
        system.metrics.observe("build.quiesce_hold", 0.0)
        builder._mark("reset_done")

    def mergers(self):
        """Final mergers over the sealed runs -- the zero-scan shortcut."""
        yield from ()  # no simulated time: the keys are sorted and sealed
        builder = self.builder
        system = builder.system
        mergers = {}
        for descriptor in builder.descriptors:
            manifest = system.sealed_runs[descriptor.name]
            store = builder._store_for(descriptor)
            runs = [store.get(run_name)
                    for run_name in manifest.get("runs", [])]
            mergers[descriptor.name] = builder._final_merger(descriptor, runs)
            system.metrics.incr("rebuild.runs_reused", len(runs))
            builder.obs.instant("rebuild.reuse_runs", index=descriptor.name,
                                runs=list(manifest.get("runs", [])),
                                keys=sum(len(run) for run in runs))
            fault_point(system.metrics, "rebuild.reuse_runs")
        return mergers

    # -- phase 2: after SF's load, replay the logged history ----------------

    def loaded(self, descriptor) -> None:
        builder = self.builder
        # Exactly the section 6 torn-snapshot fallback -- so discard the
        # torn marker, or the builder would replay a second time.
        builder._torn_recover.discard(descriptor.name)
        builder._replay_index_log(descriptor)
        fault_point(builder.system.metrics, "rebuild.replayed")

    # -- restart ------------------------------------------------------------

    def resume(self, state: dict) -> bool:
        """No phase needs the source again: a crash at ``reset`` finds
        every index pending in the manifest, whose resume discards any
        surviving tree content and merges from the closed sealed runs.
        What may be missing is a side-file."""
        system = self.builder.system
        for descriptor in self.builder.descriptors:
            if descriptor.name not in system.sidefiles:
                system.sidefiles[descriptor.name] = SideFile(
                    system, descriptor.name)
        return False

    def rejoin(self, descriptor) -> None:
        builder = self.builder
        if descriptor.state is not IndexState.BUILDING:
            # Crash before (or torn snapshot of) the flip: redo it.
            descriptor.state = IndexState.BUILDING
            descriptor.build_mode = builder.mode
        if builder.context is not None \
                and descriptor not in builder.context.descriptors:
            builder.context.descriptors.append(descriptor)


class IotScan(KeySource):
    """The primary-key range scan of an index-organized table (section
    6.2: "in the place of Current-RID, we would use the current-key as
    the scan position").

    A secondary entry's RID is ``RID(pk, 0)``, and after each batch
    Current-RID is ``RID(last pk, 1)``: Figure 1's ``Target-RID <
    Current-RID`` then holds exactly for the rows at or behind the scan
    position, so the one maintenance hook routes an index-organized
    table's changes unchanged.  Each batch descends the primary index to
    the key after the position and follows its leaf chain, so rows
    inserted ahead of the position are scanned and rows inserted behind
    it reach the side-file.
    """

    #: primary keys per scan batch
    batch = 16

    def __init__(self, builder) -> None:
        super().__init__(builder)
        unique = [spec.name for spec in builder.specs if spec.unique]
        if unique:
            raise ValueError(
                f"{builder.mode}: a unique index over an index-organized "
                f"table is not supported ({', '.join(unique)})")

    def start(self):
        builder = self.builder
        yield from builder._descriptor_phase()
        builder._make_sorters()

    def mergers(self):
        builder = self.builder
        rows = builder.table.rows
        primary = builder.table.primary
        context = builder.context
        pushes = [(d.column_getters, builder._sorters[d.name].push_many)
                  for d in builder.descriptors]
        visit_cost = builder.system.config.tree_visit_cost
        builder.obs.begin("scan")
        last = -1
        while True:
            chunk = [pk for pk, _rid in islice(
                primary.entries_from((last + 1,)), self.batch)]
            if not chunk:
                break
            values = list(map(attrgetter("values"),
                              map(rows.__getitem__, chunk)))
            rids = [RID(pk, 0) for pk in chunk]
            # the scan's own (*key, rid) entries, zipped in C
            for getters, push_many in pushes:
                push_many(list(zip(*map(map, getters, repeat(values)),
                                   rids)))
            last = chunk[-1]
            context.current_rid = RID(last, 1)
            yield from builder._throttle(len(chunk))
            yield Delay(len(chunk) * visit_cost)
        builder.obs.end("scan")
        return builder._sorted_mergers()
