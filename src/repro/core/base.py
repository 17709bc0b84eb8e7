"""Shared machinery for the index builders (IB).

Both algorithms share their first half (section 2.2.2 / 3.2.2): a
sequential scan of the data pages with sequential prefetch, latching each
page in share mode, extracting one key per record per index being built
(section 6.2: several indexes can share the scan), feeding a pipelined
restartable sort, and periodically checkpointing the sort against the WAL
so a crash does not force a full rescan (section 5).

The modes differ only in their second half, and :class:`BuilderBase`
owns the one loop that runs it: a key source (:mod:`repro.core.sources`)
ends in one final merger per index, then each index goes through the
mode's steps -- NSF inserts the sorted keys top-down into a live tree; SF
bulk-loads bottom-up and then drains the side-file.  Offline holds an X
table lock around the shared scan and load (the baseline the paper wants
to eliminate).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Optional, Sequence, TYPE_CHECKING

from repro.btree.loader import BulkLoader
from repro.core.descriptor import IndexDescriptor, IndexState
from repro.core.maintenance import (
    BuildContext,
    IOT_MODE,
    NSF_MODE,
    REBUILD_MODE,
    SF_LIKE_MODES,
    install_maintenance,
)
from repro.core.throttle import TokenBucket
from repro.faultinject.sites import fault_point, fault_points_enabled
from repro.obs.handle import NO_OBS, BuildObs
from repro.sidefile import ScanFrontier
from repro.sim.kernel import Delay, Join
from repro.sim.latch import SHARE
from repro.sort import (
    RestartableMerger,
    RunFormation,
    RunStore,
    final_merger,
    run_sequence,
)
from repro.storage.rid import INFINITY_RID, RID

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table
    from repro.system import System

#: builders resumable from a utility checkpoint (restart recreates heap
#: tables only, so not an index-organized table's build)
RESUMABLE_MODES = (NSF_MODE,) + tuple(mode for mode in SF_LIKE_MODES
                                      if mode != IOT_MODE)

#: simulated time per key extracted during the data scan
KEY_EXTRACT_COST = 0.05

#: checkpoint phases whose data scan is still running (``pscan`` is the
#: partitioned one); any later phase means the scan finished and
#: Current-RID is infinity (section 3.2.2)
SCAN_PHASES = ("scan", "pscan")


@dataclass(frozen=True)
class IndexSpec:
    """What to build: one index's name, key columns, and uniqueness."""

    name: str
    key_columns: tuple[str, ...]
    unique: bool = False

    @classmethod
    def of(cls, name: str, key_columns: Sequence[str],
           unique: bool = False) -> "IndexSpec":
        return cls(name, tuple(key_columns), unique)


@dataclass
class BuildOptions:
    """Tunables for one build run (None -> take the system default)."""

    #: pages per prefetch I/O during the data scan (section 2.2.2)
    prefetch_pages: Optional[int] = None
    #: parallel reader processes for the data scan (section 2.2.2,
    #: [PMCLS90]: "the data pages may be read in parallel using multiple
    #: processes").  NSF and offline only: the side-file modes refuse it,
    #: because Current-RID needs one ordered scan position per page
    #: range -- their parallel scan is ``partitions``.
    parallel_readers: int = 1
    #: scan-phase checkpoint interval, in data pages (None = no periodic
    #: scan checkpoints; a checkpoint is still taken at phase boundaries)
    checkpoint_every_pages: Optional[int] = None
    #: NSF: keys per multi-key index-manager call (section 2.2.3)
    ib_batch_keys: int = 8
    #: NSF: commit the IB transaction every this many inserted keys
    commit_every_keys: int = 512
    #: insert/load/drain-phase checkpoint interval, in keys or entries
    checkpoint_every_keys: Optional[int] = None
    #: fraction of each bulk-loaded leaf left free (section 2.2.3)
    fill_free_fraction: float = 0.0
    #: SF: sort the first chunk of the side-file before applying it
    #: (section 3.2.5 performance note)
    sort_sidefile: bool = False
    #: SF/PSF: side-file entries fed to the tree per drain batch (one
    #: traversal + latch hold covers the batch); larger batches shorten
    #: the catch-up window at the cost of coarser checkpoint spacing
    #: (experiment E19)
    drain_batch: int = 64
    #: side-file modes: scan the table as this many page-range shards,
    #: one worker and one Current-RID each (None -> the mode's default:
    #: the serial scan, or 2 for ``psf``; a rebuild never scans)
    partitions: Optional[int] = None


class _IndexDropped(Exception):
    """The index of the step that raised this was cancelled."""


class BuilderBase:
    """Common state and phases of one index-build utility run."""

    mode = "offline"
    #: prefix of the per-index run store the sort plumbing reads and
    #: writes (a rebuild merges out of the ``sealed:`` stores instead)
    run_store_prefix = "sort"
    #: the per-index steps after the key source, in order; step ``x`` is
    #: the generator method ``_x_step(descriptor, merger)``
    steps: tuple = ()
    #: visit every step of one index before the next index (section 6.2:
    #: each index online as soon as its own drain completes, side-files
    #: of the later ones still growing) instead of one step across every
    #: index, then the next (which keeps all K offline until the very
    #: end; E8 pins it)
    pipelined = False

    def __init__(self, system: "System", table: "Table",
                 specs: Sequence[IndexSpec] | IndexSpec,
                 options: Optional[BuildOptions] = None) -> None:
        self.system = system
        self.table = table
        if isinstance(specs, IndexSpec):
            specs = [specs]
        if not specs:
            raise ValueError("at least one index spec required")
        self.specs = list(specs)
        self.options = options or BuildOptions()
        self.descriptors: list[IndexDescriptor] = []
        self.context: Optional[BuildContext] = None
        self.timings: dict[str, float] = {}
        self.error: Optional[BaseException] = None
        #: the utility checkpoint this builder was resumed from (None
        #: for a fresh build); see :meth:`resume`
        self._resume_state: Optional[dict] = None
        #: the per-index build manifest, the one progress state past the
        #: scan that every utility checkpoint carries: index name ->
        #: {"status": pending | loading | draining | done, "merge" +
        #: "highest_key" (a checkpointed load or NSF insert), "position"
        #: (where its side-file drain starts), "floor" (a rebuild's
        #: drain floor)}.  K = 1 is a manifest of one.
        self._manifest: dict[str, dict] = {
            spec.name: {"status": "pending"} for spec in self.specs}
        self._sorters: dict[str, RunFormation] = {}
        #: IB admission control: the *system's* bucket, shared by every
        #: process of this build (coordinator, readers, PSF shards) AND
        #: by any concurrent builds -- ``build_rate_limit`` bounds the
        #: aggregate utility rate (K builds each with a private bucket
        #: would admit K times the limit).  None when unthrottled.
        limit = system.config.build_rate_limit
        self._rate_bucket: Optional[TokenBucket] = \
            system.build_bucket(limit) if limit else None
        #: per-build throttle metric names ("+"-joined index names), so
        #: two concurrent throttled builds' charges stay attributable;
        #: the unsuffixed totals remain for the bench suites
        self.label = "+".join(spec.name for spec in self.specs)
        self._throttle_charges_metric = \
            f"build.throttle_charges.{self.label}"
        self._throttle_waits_metric = f"build.throttle_waits.{self.label}"
        self._configure()
        #: the build's emit handle (:mod:`repro.obs.handle`): spans,
        #: instants and gauges all go through it; the shared no-op unless
        #: a recorder is attached as ``metrics.tracer``
        tracer = system.metrics.tracer
        self.obs = BuildObs(self, tracer) if tracer is not None else NO_OBS

    def _configure(self) -> None:
        """Hook: validate the options and pick the mode's parts."""

    # -- option resolution -------------------------------------------------

    @property
    def prefetch_pages(self) -> int:
        return self.options.prefetch_pages \
            or self.system.config.prefetch_pages

    # -- the process body every mode shares ---------------------------------

    def run(self):
        """Generator process body: build all requested indexes.

        The prologue and epilogue are the same for every mode; the
        phases in between are :meth:`_build_loop`.
        """
        self._mark("start")
        self.obs.begin("build", mode=self.mode, table=self.table.name,
                       indexes=[s.name for s in self.specs],
                       resumed=self._resume_state is not None,
                       **self._build_span_attrs())
        yield from self._build_loop()
        self._remove_context()
        self._write_utility_checkpoint({"phase": "done"})
        # A done build never resumes, so its sort runs (every shard's
        # share one store per index) have no reader left, nor do the
        # sorters that reach them; ``sealed:`` stays, a rebuild's input.
        for descriptor in self.descriptors:
            self.system.run_stores.pop(f"sort:{descriptor.name}", None)
        self._sorters.clear()
        self._mark("done")
        self.obs.end("build")
        return self.descriptors

    def _build_loop(self):
        """The one build loop, fresh or resumed: the key source (unless
        resumed past it), then every ``(index, step)`` pair whose index
        is not done."""
        state = self._resume_state
        mergers = None
        if state is None:
            yield from self.source.start()
        elif not self.source.resume(state):
            mergers = self._resume_loads()
        if mergers is None:
            mergers = yield from self.source.mergers()
        for descriptor, step in self._steps():
            self._drop_cancelled()
            if descriptor in self.descriptors \
                    and self._manifest[descriptor.name]["status"] != "done":
                with suppress(_IndexDropped):
                    yield from getattr(self, f"_{step}_step")(
                        descriptor, mergers.get(descriptor.name))
        self._mark_available()

    def _steps(self) -> list:
        """The visiting order: the two nestings of indexes x steps."""
        if self.pipelined:
            return [(descriptor, step) for descriptor in self.descriptors
                    for step in self.steps]
        return [(descriptor, step) for step in self.steps
                for descriptor in self.descriptors]

    def _build_span_attrs(self) -> dict:
        """Hook: mode-specific attributes of the root ``build`` span."""
        return {}

    # -- restart (sections 2.2.3, 3.2.4) --------------------------------------

    @classmethod
    def resume(cls, system: "System", utility_state: dict) -> "BuilderBase":
        """Rebuild the interrupted builder from its utility checkpoint.

        The system must already have gone through restart recovery,
        which re-attached the descriptors and -- with
        :func:`repro.core.build_pre_undo` as its ``pre_undo`` hook --
        reinstalled the build context the loser rollbacks were
        classified against; a caller that skipped the hook gets the
        same :func:`recovery_context` here.
        """
        table = system.tables[utility_state["table"]]
        # an index cancelled since has left the catalog (section 2.3.2)
        specs = [IndexSpec(name, tuple(cols), unique)
                 for name, cols, unique in utility_state["specs"]
                 if name in system.indexes]
        builder = cls(system, table, specs,
                      BuildOptions(**utility_state.get("options", {})))
        builder.descriptors = [system.indexes[spec.name] for spec in specs]
        install_maintenance(system, table)
        context = system.builds.get(table.name)
        if context is None:
            context = recovery_context(system, utility_state)
        builder.context = context
        builder._resume_state = utility_state
        builder._manifest = {spec.name: dict(
            utility_state["manifest"][spec.name]) for spec in specs}
        return builder

    # -- catalog steps ----------------------------------------------------------

    def _create_descriptors(self) -> None:
        for spec in self.specs:
            descriptor = IndexDescriptor(
                self.system, self.table, spec.name, spec.key_columns,
                unique=spec.unique)
            descriptor.build_mode = self.mode
            descriptor.attach()
            self.descriptors.append(descriptor)
        install_maintenance(self.system, self.table)

    def _install_context(self, **kwargs) -> BuildContext:
        context = BuildContext(mode=self.mode,
                               descriptors=list(self.descriptors), **kwargs)
        self.system.builds[self.table.name] = context
        self.context = context
        return context

    def _remove_context(self) -> None:
        self.system.builds.pop(self.table.name, None)
        self.context = None

    def _mark_available(self) -> None:
        self._drop_cancelled()
        for descriptor in self.descriptors:
            descriptor.state = IndexState.AVAILABLE

    # -- cancel (section 2.3.2) ---------------------------------------------------

    def _drop_cancelled(self) -> None:
        """Forget every index :func:`~repro.core.cancel.cancel_build`
        dropped, so no later checkpoint or step names it."""
        dropped = [d.name for d in self.descriptors
                   if d.state is IndexState.CANCELLED]
        # a new list: a shard worker may be iterating the old one
        self.descriptors = [d for d in self.descriptors
                            if d.state is not IndexState.CANCELLED]
        for name in dropped:
            self._manifest.pop(name, None)
            self._sorters.pop(name, None)

    def _end_if_dropped(self, descriptor, step: str, txn=None):
        """Generator: if ``descriptor`` was cancelled meanwhile, commit
        ``txn`` (it changed the dropped tree) and unwind to the loop."""
        if descriptor.state is IndexState.CANCELLED:
            if txn is not None:
                yield from txn.commit()
            self.obs.end(f"{step}:{descriptor.name}", cancelled=True)
            raise _IndexDropped(descriptor.name)

    def _quiesced(self, lock_mode: str, txn_name: str, body):
        """Generator: run the generator ``body`` with updaters quiesced
        by a ``lock_mode`` table lock, which waits out every active
        updater's IX lock and holds off new ones until ``body`` ends
        (NSF's descriptor step: S, section 2.2.1; offline's whole build:
        X)."""
        metrics = self.system.metrics
        txn = self.system.txns.begin(txn_name)
        requested = self.system.sim.now
        yield from txn.lock(self.table.table_lock_name, lock_mode)
        granted = self.system.sim.now
        metrics.observe("build.quiesce_wait", granted - requested)
        self.obs.instant("quiesce.begin", waited=granted - requested)
        try:
            yield from body
        finally:
            yield from txn.commit()  # ends the quiesce
        metrics.observe("build.quiesce_hold", self.system.sim.now - granted)
        self.obs.instant("quiesce.end", held=self.system.sim.now - granted)

    # -- sort plumbing -------------------------------------------------------------

    def _store_for(self, descriptor: IndexDescriptor) -> RunStore:
        name = f"{self.run_store_prefix}:{descriptor.name}"
        store = self.system.run_stores.get(name)
        if store is None:
            store = RunStore(prefix=name)
            self.system.run_stores[name] = store
        return store

    def _new_sorter(self, descriptor: IndexDescriptor,
                    workspace: Optional[int] = None) -> RunFormation:
        """One run-formation sorter over the index's run store."""
        size = workspace if workspace is not None \
            else self.system.config.sort_workspace
        return RunFormation(self._store_for(descriptor), size)

    def _restore_sorter(self, descriptor: IndexDescriptor, manifest: dict,
                        workspace: Optional[int] = None,
                        prune: bool = True):
        """Restore one sorter from its checkpoint manifest."""
        size = workspace if workspace is not None \
            else self.system.config.sort_workspace
        return RunFormation.restore(self._store_for(descriptor), manifest,
                                    size, prune=prune)

    def _make_sorters(self) -> None:
        for descriptor in self.descriptors:
            self._sorters[descriptor.name] = self._new_sorter(descriptor)

    def _restore_sorters(self, manifests: dict,
                         workspace: Optional[int] = None,
                         prune: bool = True):
        """Scan-phase resume (section 5.1): one sorter per index from its
        sort-checkpoint manifest, a fresh one where no checkpoint landed.
        Returns ``(sorters, scan position)``; the position is None when
        nothing was restored."""
        sorters: dict[str, RunFormation] = {}
        position = None
        for descriptor in self.descriptors:
            manifest = manifests.get(descriptor.name)
            if manifest is None:
                sorters[descriptor.name] = self._new_sorter(
                    descriptor, workspace=workspace)
            else:
                sorters[descriptor.name], position = self._restore_sorter(
                    descriptor, manifest, workspace=workspace, prune=prune)
        return sorters, position

    def _reset_torn_shells(self) -> None:
        """A torn snapshot during the scan phase lost only an empty tree
        image; normalize the shell so the load starts clean."""
        for descriptor in self.descriptors:
            if descriptor.tree.media_damaged:
                descriptor.tree.reset()

    # -- the per-index manifest ------------------------------------------------

    def _enter(self, name: str, status: str, **fields) -> None:
        """Move index ``name`` to ``status`` in the manifest.  Only the
        drain floor outlives a transition; whatever else the new state
        needs is passed in."""
        entry = {"status": status, **fields}
        floor = self._manifest[name].get("floor")
        if floor is not None:
            entry["floor"] = floor
        self._manifest[name] = entry

    def _resume_loads(self) -> dict:
        """THE post-scan resume: read the manifest, return the mergers
        the remaining steps need.  Finished indexes are skipped outright
        (no rescan, no reload, no re-drain or re-insert) and AVAILABLE
        from here on; the others rejoin the key source."""
        metrics = self.system.metrics
        skipped = 0
        for descriptor in self.descriptors:
            if self._manifest[descriptor.name]["status"] != "done":
                self.source.rejoin(descriptor)
                continue
            descriptor.state = IndexState.AVAILABLE
            if self.context is not None \
                    and descriptor in self.context.descriptors:
                self.context.descriptors.remove(descriptor)
            skipped += 1
        if skipped:
            metrics.incr("multibuild.resume_skipped_indexes", skipped)
        mergers = self._mergers_from_manifest()
        metrics.incr(f"build.resumes.{self.steps[0]}" if mergers
                     else f"build.resumes.{self.steps[-1]}")
        return mergers

    def _mergers_from_manifest(self) -> dict:
        """An index checkpointed mid-load (NSF: mid-insert) resumes its
        merge from the counters, a pending one restarts from the closed
        runs, and a draining or done one needs no keys at all."""
        mergers = {}
        for descriptor in self.descriptors:
            entry = self._manifest[descriptor.name]
            if entry["status"] == "loading":
                mergers[descriptor.name] = self._resume_load(descriptor,
                                                             entry)
            elif entry["status"] == "pending":
                mergers[descriptor.name] = self._restart_load(descriptor)
        return mergers

    def _resume_load(self, descriptor: IndexDescriptor, entry: dict):
        """Merger for an index resumed from its merge checkpoint."""
        return RestartableMerger.restore(self._store_for(descriptor),
                                         entry["merge"])

    def _restart_load(self, descriptor: IndexDescriptor):
        """Merger for an index with no merge checkpoint: the final merge
        over the forced, closed runs that survived.  Creation order, not
        name order: lexicographic names put run-10 before run-2,
        silently merging a resumed build in a different stream order
        than the original."""
        store = self._store_for(descriptor)
        runs = sorted((run for run in store.runs.values() if run.closed),
                      key=lambda run: run_sequence(run.name))
        return self._final_merger(descriptor, runs)

    # -- IB admission control ----------------------------------------------

    def _throttle(self, cost: float):
        """Generator: charge ``cost`` work items against the build's
        rate limit, delaying when the bucket runs dry.

        When unthrottled (the default) this returns before its first
        yield, so ``yield from self._throttle(n)`` adds *nothing* to the
        schedule -- existing golden traces, sweeps, and perf baselines
        are unchanged.  Builders call it at batch boundaries: one call
        per prefetch batch (pages), insert batch, load flush, or drain
        batch (keys / entries).
        """
        bucket = self._rate_bucket
        if bucket is None or cost <= 0:
            return
        self.system.metrics.incr("build.throttle_charges")
        self.system.metrics.incr(self._throttle_charges_metric)
        before = self.system.sim.now
        yield from bucket.acquire(cost)
        waited = self.system.sim.now - before
        if waited > 0:
            self.system.metrics.incr("build.throttle_waits")
            self.system.metrics.incr(self._throttle_waits_metric)
            self.system.metrics.observe("build.throttle_wait_time", waited)

    # -- the shared data scan (generators) ----------------------------------------------

    def _scan_phase(self, start_page: int = 0, readers: int = 1):
        """Phase 2 of every data-page scanning mode: scan + sort, then
        :meth:`_sorted_mergers`."""
        yield from self._scan_and_sort(start_page, readers)
        return self._sorted_mergers()

    def _sorted_mergers(self) -> dict:
        """The end of a serial scan: close the sorts, the transition
        checkpoint (:meth:`_scan_done`), then one final merger per index
        over the sealed runs."""
        runs_by_index = self._finish_sort()
        self._mark("scan_done")
        self._scan_done()
        return {d.name: self._final_merger(d, runs_by_index[d.name])
                for d in self.descriptors}

    def _scan_done(self) -> None:
        """Hook: the mode's end-of-scan state change and its transition
        checkpoint -- a crash from here resumes by rebuilding the merge
        from the forced, closed runs."""

    def _scan_and_sort(self, start_page: int = 0, readers: int = 1):
        """Scan the data pages, extract keys, feed the pipelined sort.

        Section 2.3.1: "The last page to be processed by the data page
        scan can be noted before starting IB's data scan so that if there
        are any extensions of the file after IB starts, IB does not have
        to process the new pages."

        ``readers > 1`` (section 2.2.2, [PMCLS90]: "the data pages may
        be read in parallel using multiple processes") splits the noted
        range into contiguous stripes, one reader process per stripe;
        their I/O delays overlap on the simulated clock.  Pushes into
        the shared sorters are atomic (simulator semantics), so no extra
        synchronisation is needed.  Periodic scan checkpoints are
        skipped (positions are per-stripe); the phase-transition
        checkpoint still bounds the loss.  Only NSF and offline ask for
        it: SF's Current-RID needs a single ordered scan position.
        """
        noted_last_page = self.table.page_count
        metrics = self.system.metrics
        pages_before = metrics.get("build.pages_scanned")
        self.obs.begin("scan", start_page=start_page)
        if readers > 1:
            last_page = noted_last_page
            stripe = max(1, (last_page - start_page + readers - 1) // readers)
            procs = []
            for first in range(start_page, last_page, stripe):
                limit = min(first + stripe, last_page)
                procs.append(self.system.spawn(
                    self._scan_pages({"next_page": first},
                                     lambda limit=limit: limit,
                                     self._sorters),
                    name=f"ib-reader-{len(procs)}"))
            metrics.incr("build.parallel_readers", len(procs))
            for proc in procs:
                yield Join(proc)
                if proc.error is not None:  # pragma: no cover - reader bug
                    raise proc.error
        else:
            last_page = yield from self._scan_pages(
                {"next_page": start_page},
                lambda: self._scan_limit(noted_last_page), self._sorters,
                advance=self._after_page_scanned,
                checkpoint=self._checkpoint_scan)
        self.obs.end("scan", pages=metrics.get("build.pages_scanned")
                     - pages_before)
        return last_page

    def _scan_pages(self, cursor: dict, limit_of, sorters: dict, *,
                    advance=None, checkpoint=None,
                    page_site: str = "build.scan_page",
                    page_counter: Optional[str] = None):
        """THE page scan (sections 2.2.2 / 3.2.2): prefetch a batch,
        start reading the next two ahead, share-latch each page, extract
        one key per record per index, advance the scan position under
        the latch, and hand each page the scan read back to the buffer
        pool's LRU end (``BufferPool.read_ahead`` / ``recycle``: both
        only under the shared-disk model).

        The serial scan, each parallel-reader stripe and each PSF shard
        worker all run this one loop; what differs is passed in:

        * ``cursor["next_page"]`` -- where to start; rewritten after
          every batch (a PSF shard passes its manifest slot, so the
          shared build manifest always holds its position);
        * ``limit_of()`` -- the exclusive end page, re-read per batch
          (a fixed bound, or the live page count when chasing EOF);
        * ``sorters`` -- index name -> the run formation to push into;
        * ``advance(page)`` -- called under the page latch once the
          page's keys are extracted (SF: Current-RID; PSF: the shard's
          frontier entry); the latch is why Target-RID and Current-RID
          can never be equal (section 3.1);
        * ``checkpoint(next_page)`` -- taken every
          ``checkpoint_every_pages`` pages while pages remain;
        * ``page_site`` / ``page_counter`` -- the per-page fault site
          and an extra per-page counter.

        Returns the final limit.
        """
        table = self.table
        system = self.system
        metrics = system.metrics
        checkpoint_every = self.options.checkpoint_every_pages \
            if checkpoint is not None else None
        page_no = cursor["next_page"]
        pages_since_checkpoint = 0
        # Each index gets one list of keys per latched page.  The
        # per-record fault site fires after them, once per record: sorter
        # state is volatile until a checkpoint forces it, so a crash at
        # any hit loses the same keys.  The calls are skipped wholesale
        # when no injector is installed (the guard equals fault_point's
        # own disabled test, so sweep discovery and armed runs see an
        # unchanged hit schedule).
        extractors = [(d.column_getters, sorters[d.name].push_many)
                      for d in self.descriptors]
        fp_enabled = fault_points_enabled(metrics)
        buffer = system.buffer
        batch = self.prefetch_pages
        # pages below ``ahead`` are read or being read ahead, and paid
        # for: a throttled build charges a page when its read starts
        ahead = page_no
        while True:
            limit = limit_of()
            if page_no >= limit:
                break
            upto = min(page_no + batch, limit)
            batch_ids = [table.page_id(p) for p in range(page_no, upto)]
            # Every scanning process of every build shares the system's
            # one bucket, so the *total* scan rate is what is limited.
            if upto > ahead:
                yield from self._throttle(upto - ahead)
                ahead = upto
            pages = yield from buffer.fetch_sequential(batch_ids,
                                                       recycle=True)
            # before each page, read up to the next two batches ahead
            # while a channel is free for it
            horizon = min(upto + 2 * batch, limit)
            for page in pages:
                if ahead < horizon and buffer.background_room() > 0:
                    started = buffer.read_ahead([
                        [table.page_id(p)
                         for p in range(first, min(first + batch, horizon))]
                        for first in range(ahead, horizon, batch)])
                    if started:
                        yield from self._throttle(started)
                        ahead += started
                page = yield from buffer.latch_current(page, SHARE)
                try:
                    records = page.live_records()
                    if records:
                        rids = [rid for rid, _record in records]
                        rows = [record.values for _rid, record in records]
                        # the (*key, rid) entries of the page, zipped in C
                        for getters, push_many in extractors:
                            push_many(list(zip(
                                *map(map, getters, repeat(rows)), rids)))
                        if fp_enabled:
                            for _ in records:
                                fault_point(metrics, "build.sort_push")
                        cost = len(records) * KEY_EXTRACT_COST
                        if not system.sim.delayed(cost):
                            yield Delay(cost)
                    if advance is not None:
                        advance(page)
                finally:
                    page.latch.release(system.sim.current)
                buffer.recycle(page)
                metrics.incr("build.pages_scanned")
                if page_counter is not None:
                    metrics.incr(page_counter)
                fault_point(metrics, page_site)
            pages_since_checkpoint += len(batch_ids)
            page_no = cursor["next_page"] = upto
            if checkpoint_every is not None \
                    and pages_since_checkpoint >= checkpoint_every \
                    and page_no < limit:
                checkpoint(page_no)
                pages_since_checkpoint = 0
        return limit

    def _scan_limit(self, noted_last_page: int) -> int:
        """How far the scan goes.

        Default (NSF, offline): the page count noted before the scan
        started -- "IB does not have to process the new pages.
        Transactions would insert directly into the index the keys of
        records belonging to those new pages" (section 2.3.1), which works
        because an NSF index is visible from descriptor creation.

        SF overrides this: its visibility rule means records ahead of
        Current-RID make no side-file entries, so the scan must chase the
        end of file; extensions after the scan ends are covered by
        Current-RID = infinity (section 3.2.2).
        """
        return noted_last_page

    def _after_page_scanned(self, page) -> None:
        """Hook: SF advances Current-RID here, under the page latch."""

    def _checkpoint_scan(self, next_page: int) -> None:
        fault_point(self.system.metrics, "build.scan_checkpoint")
        manifests = {name: sorter.checkpoint(scan_position=next_page)
                     for name, sorter in self._sorters.items()}
        self._write_utility_checkpoint({
            "phase": "scan",
            "next_page": next_page,
            "sort": manifests,
        })
        self.system.metrics.incr("build.scan_checkpoints")

    def _finish_sort(self) -> dict[str, list]:
        fault_point(self.system.metrics, "build.sort_finish")
        return {name: sorter.finish()
                for name, sorter in self._sorters.items()}

    def _final_merger(self, descriptor: IndexDescriptor, runs):
        return final_merger(self._store_for(descriptor), runs,
                            self.system.config.merge_fanin)

    # -- the shared bottom-up load (SF phase 3, offline) -----------------------

    def _load_phase(self, descriptor, merger: Optional[RestartableMerger],
                    loader: Optional[BulkLoader] = None):
        """Bulk-load the merged keys bottom-up, unlogged (section 3.2.4),
        checkpointing the merge counters and the highest key every
        ``checkpoint_every_keys`` keys -- unless the mode restarts
        instead of resuming (offline): no checkpoints, no crash sites."""
        tree = descriptor.tree
        metrics = self.system.metrics
        self.obs.begin("load", key=f"load:{descriptor.name}",
                       index=descriptor.name)
        keys_loaded = 0
        if loader is None:
            # resume() degrades to a fresh loader on an empty tree, and
            # continues after the checkpointed right-most path otherwise
            # (section 3.2.4).
            loader = BulkLoader.resume(
                tree, fill_free_fraction=self.options.fill_free_fraction)
        resumable = self.mode in RESUMABLE_MODES
        checkpoint_every = self.options.checkpoint_every_keys \
            if resumable else None
        since_checkpoint = 0
        since_yield = 0
        key_cost = self.system.config.bulk_load_key_cost

        def charge(keys):
            """Admission and simulated time for ``keys`` loaded keys."""
            yield from self._throttle(keys)
            if not self.system.sim.delayed(keys * key_cost):
                yield Delay(keys * key_cost)
            yield from self._end_if_dropped(descriptor, "load")

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
            loader.extend(batch)
            produced = len(batch)
            keys_loaded += produced
            since_checkpoint += produced
            since_yield += produced
            if since_yield >= 64:
                yield from charge(since_yield)
                since_yield = 0
                if resumable:
                    fault_point(metrics, "sf.load_batch")
            if checkpoint_every and since_checkpoint >= checkpoint_every:
                # Atomic trio: force tree, checkpoint merge counters,
                # write the WAL checkpoint (section 3.2.4).
                self._enter(
                    descriptor.name, "loading", merge=merger.checkpoint(),
                    highest_key=loader.highest_key,
                    position=self._manifest[descriptor.name].get(
                        "position", 0))
                self._write_utility_checkpoint({"phase": "load"})
                since_checkpoint = 0
                metrics.incr("build.load_checkpoints")
        if since_yield:
            yield from charge(since_yield)
        loader.finish()
        tree.force()
        self.obs.end(f"load:{descriptor.name}", keys=keys_loaded)
        self._mark(f"load_done:{descriptor.name}")
        if resumable:
            fault_point(metrics, "sf.load_done")

    # -- WAL checkpoint plumbing -----------------------------------------------------------

    def _write_utility_checkpoint(self, state: dict) -> None:
        self._drop_cancelled()
        # "This checkpointing to stable storage is done after all the
        # dirty pages of the index have been written to disk" (§3.2.4):
        # force each build tree so redo starts from this point.
        fault_point(self.system.metrics, "build.checkpoint.before")
        for descriptor in self.descriptors:
            descriptor.tree.force()
        # The trees' stable snapshots are now *ahead* of the surviving
        # checkpoint until the new one lands -- resume must cut the trees
        # back to the checkpointed high keys (section 3.2.4).
        fault_point(self.system.metrics, "build.checkpoint.mid")
        payload = {
            "builder": self.mode,
            "table": self.table.name,
            "indexes": [d.name for d in self.descriptors],
            "specs": [(s.name, list(s.key_columns), s.unique)
                      for s in self.specs],
        }
        # Copied entry by entry: the record must keep the manifest as of
        # this instant, not follow the builder's later transitions.
        if state.get("phase") != "done":
            payload["manifest"] = {name: dict(entry) for name, entry
                                   in self._manifest.items()}
        # The options that differ from the defaults, so the resumed
        # build keeps its drain batch, fill factor, checkpoint and commit
        # intervals, workspace, ...  Key absent when all are default.
        changed = {f.name: getattr(self.options, f.name)
                   for f in fields(BuildOptions)
                   if getattr(self.options, f.name) != f.default}
        if changed:
            payload["options"] = changed
        payload.update(state)
        if self.context is not None:
            payload["current_rid"] = self.context.current_rid
            payload["index_build"] = self.context.index_build
            if self.context.frontier is not None:
                payload["frontier"] = self.context.frontier.to_manifest()
        self.system.checkpoint(payload)
        self.system.metrics.incr("build.utility_checkpoints")
        fault_point(self.system.metrics, "build.checkpoint.after")

    # -- timing helpers -------------------------------------------------------------------------

    def _mark(self, label: str) -> None:
        self.timings[label] = self.system.sim.now


def recovery_context(system: "System", utility_state: dict
                     ) -> Optional[BuildContext]:
    """Install the build context one utility checkpoint describes.

    The paper's one restart rule (sections 2.2.3, 3.2.4): reinstall
    Current-RID and the Index_Build flag as of the last utility
    checkpoint, so Figure 2's count comparison classifies visibility
    during loser rollback exactly as the crashed build would have, then
    continue from the checkpointed phase.  The context is a function of
    the payload alone:

    * descriptors -- every checkpointed index still in the catalog
      (AVAILABLE ones short-circuit visibility on state alone); a
      rebuild keeps only the BUILDING ones, because a crash at its
      ``reset`` checkpoint may predate the flip of a live index;
    * NSF -- nothing else: the index is visible from descriptor creation;
    * side-file modes -- the checkpointed Current-RID while the scan
      runs, infinity in every later phase (a rebuild never scans);
    * a checkpointed frontier (PSF) -- one Current-RID per shard.  In
      the scan phase each comes from *that shard's* last checkpointed
      scan position, NOT the live frontier at manifest write time: keys
      scanned past a shard's checkpoint died with the crash and will be
      re-extracted, so recovery-time visibility must treat them as
      unscanned (the shard-wise version of resuming the serial scan
      from its checkpoint, section 5.1).

    Returns None (installing nothing) when no resumable build was in
    progress.
    """
    mode = utility_state.get("builder")
    phase = utility_state.get("phase")
    if mode not in RESUMABLE_MODES or phase == "done":
        return None
    context = BuildContext(
        mode=mode,
        descriptors=[system.indexes[name]
                     for name in utility_state["indexes"]
                     if name in system.indexes],
        index_build=bool(utility_state.get("index_build", True)))
    if mode in SF_LIKE_MODES:
        scanning = phase in SCAN_PHASES
        if mode == REBUILD_MODE:
            context.descriptors = [d for d in context.descriptors
                                   if d.state is IndexState.BUILDING]
        manifest = utility_state.get("frontier")
        if manifest is not None:
            frontier = context.frontier = ScanFrontier.from_manifest(manifest)
            if not scanning:
                frontier.finish_all()
            else:
                for shard, raw in utility_state["shards"].items():
                    if raw["done"]:
                        frontier.finish(int(shard))
                    else:
                        frontier.current[int(shard)] = RID(
                            raw["ckpt_page"], 0)
                scanning = not frontier.done
        if not scanning:
            context.current_rid = INFINITY_RID
        elif "current_rid" in utility_state:
            context.current_rid = utility_state["current_rid"]
    system.builds[utility_state["table"]] = context
    return context

