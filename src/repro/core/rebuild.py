"""Fast index reconstruction from sealed sorted runs.

Every completed SF-like build parks its fully merged, forced final run
in a ``sealed:{index}`` store (:meth:`repro.core.sf.SFIndexBuilder.
_seal_sorted_runs`) together with a manifest in ``system.sealed_runs``.
Dropping and rebuilding the index -- the classic remedy for a bloated or
corrupted tree -- can then skip the expensive half of the build
entirely: no table scan, no run formation, zero data-page reads
(experiment E25).  The rebuild is:

1. **Reset** -- checkpoint the rebuild *first* (so a crash can never
   leave a BUILDING descriptor the checkpoint does not know about --
   orphan discard would detach it, destroying a live index), then in one
   atomic step flip the descriptor to BUILDING, drop the old tree pages,
   and install an SF build context with Current-RID already at infinity:
   the sealed run covers every record, so all concurrent maintenance
   routes straight to a side-file (section 3.2.2's end-of-scan state).
2. **Load** -- bulk-load the tree bottom-up from the sealed run, exactly
   SF's phase 3 (checkpointed merge counters, restartable), then replay
   the logged ``index.apply`` history on top: the sealed run reflects the
   table as of the *original* build's scan, and everything since -- the
   original drain, post-flip direct maintenance, earlier rebuilds -- was
   logged (the same mechanism as the section 6 torn-snapshot fallback).
3. **Drain + flip** -- SF's phase 4, starting from the side-file length
   recorded at reset (the prefix below it was applied -- and logged --
   by the original build; re-applying a non-suffix does not converge).

The builder *is* an :class:`~repro.core.sf.SFIndexBuilder` whose run
store is the sealed store; crash/resume, throttling, progress, and the
compressed-key codec all ride along unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import IndexSpec
from repro.core.descriptor import IndexState
from repro.core.maintenance import REBUILD_MODE
from repro.core.sf import SFIndexBuilder
from repro.errors import StorageError
from repro.faultinject.sites import fault_point
from repro.sidefile import SideFile, register_sidefile_operations
from repro.sort import RestartableMerger
from repro.storage.rid import INFINITY_RID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.descriptor import IndexDescriptor
    from repro.system import System


class RebuildIndexBuilder(SFIndexBuilder):
    """Drop + rebuild an existing index from its sealed sorted runs."""

    mode = REBUILD_MODE

    def __init__(self, system, table, specs, options=None):
        super().__init__(system, table, specs, options)
        #: side-file length at reset time, per index: the drain floor.
        #: Entries below it belong to the original build's era and were
        #: already applied (and logged) -- re-draining them would replay
        #: a non-suffix, which does not converge.
        self._sidefile_starts: dict[str, int] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def for_index(cls, system: "System", descriptor: "IndexDescriptor",
                  options=None) -> "RebuildIndexBuilder":
        """Builder rebuilding the *existing* ``descriptor`` in place."""
        manifest = system.sealed_runs[descriptor.name]
        spec = IndexSpec(descriptor.name, tuple(descriptor.key_columns),
                         descriptor.unique)
        builder = cls(system, descriptor.table, [spec], options)
        builder.descriptors = [descriptor]
        builder._validate_sealed(descriptor, manifest)
        codec_manifest = manifest.get("codec")
        if codec_manifest is not None:
            # The sealed run holds *encoded* keys: the rebuild must adopt
            # the original build's codec layout (and its compressed mode)
            # so the load phase decodes them identically.
            builder.options.compressed_keys = True
            builder._codec_for(descriptor.name).adopt(codec_manifest)
        return builder

    def _validate_sealed(self, descriptor, manifest) -> None:
        """Fail fast on a stale or torn sealed manifest."""
        name = descriptor.name
        if manifest.get("table") != self.table.name:
            raise StorageError(
                f"sealed runs for {name!r} belong to table "
                f"{manifest.get('table')!r}, not {self.table.name!r}")
        if tuple(manifest.get("key_columns", ())) \
                != tuple(descriptor.key_columns):
            raise StorageError(
                f"sealed runs for {name!r} were sorted on columns "
                f"{manifest.get('key_columns')!r}; the index now keys on "
                f"{list(descriptor.key_columns)!r}")
        store = self.system.run_stores.get(f"sealed:{name}")
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

    # -- sort plumbing: the sealed store IS the run store -------------------

    def _store_name(self, descriptor) -> str:
        return f"sealed:{descriptor.name}"

    # -- main process -------------------------------------------------------

    def _start(self):
        """No descriptor phase and no scan: reset, then straight to the
        load over the sealed runs, draining from the recorded floors."""
        self._reset_phase()
        return "load", 0, [], [], self._reuse_sealed_runs(), \
            dict(self._sidefile_starts)

    # -- phase 1: checkpoint, then atomic flip + drop -----------------------

    def _reset_phase(self) -> None:
        register_sidefile_operations(self.system)
        for descriptor in self.descriptors:
            sidefile = self.system.sidefiles.get(descriptor.name)
            if sidefile is None:
                sidefile = SideFile(self.system, descriptor.name)
                self.system.sidefiles[descriptor.name] = sidefile
            self._sidefile_starts[descriptor.name] = len(sidefile.entries)
        # Checkpoint BEFORE the flip: restart's orphan discard detaches
        # any BUILDING descriptor the surviving checkpoint never recorded
        # -- correct for a fresh build's throwaway descriptor, fatal for
        # a rebuild of a live index.  Registering first means a crash in
        # the gap sees either an AVAILABLE index (rebuild never started)
        # or a BUILDING descriptor the checkpoint knows how to resume.
        self._write_utility_checkpoint({"phase": "reset"})
        fault_point(self.system.metrics, "rebuild.reset")
        # Atomic flip + drop (no yields): queries stop seeing the index,
        # maintenance starts routing to the side-file, and the old tree
        # pages vanish in the same step.
        for descriptor in self.descriptors:
            descriptor.state = IndexState.BUILDING
            descriptor.build_mode = self.mode
            self._reset_tree(descriptor.tree)
            descriptor.tree.force()  # the empty tree is the stable image
        self._install_context(current_rid=INFINITY_RID, index_build=True)
        # SF's headline property holds for the rebuild too: no quiesce.
        self.system.metrics.observe("build.quiesce_wait", 0.0)
        self.system.metrics.observe("build.quiesce_hold", 0.0)
        self._mark("reset_done")

    def _reuse_sealed_runs(self) -> dict:
        """Final mergers over the sealed runs -- the zero-scan shortcut."""
        mergers: dict[str, RestartableMerger] = {}
        for descriptor in self.descriptors:
            manifest = self.system.sealed_runs[descriptor.name]
            store = self._store_for(descriptor)
            runs = [store.get(run_name)
                    for run_name in manifest.get("runs", [])]
            mergers[descriptor.name] = self._final_merger(descriptor, runs)
            self.system.metrics.incr("rebuild.runs_reused", len(runs))
            self._trace_instant("rebuild.reuse_runs",
                                index=descriptor.name,
                                runs=list(manifest.get("runs", [])),
                                keys=sum(len(run) for run in runs))
            fault_point(self.system.metrics, "rebuild.reuse_runs")
        return mergers

    # -- phase 2: SF's load, then replay the logged history -----------------

    def _load_phase(self, descriptor, merger, loaded, loader=None):
        yield from super()._load_phase(descriptor, merger, loaded,
                                       loader=loader)
        # The sealed run reflects the table as of the original build's
        # scan; everything since (the original drain, direct maintenance
        # after its flip, earlier rebuilds' drains) was logged as
        # ``index.apply``.  Replaying it here is exactly the section 6
        # torn-snapshot fallback -- discard the torn marker so the shared
        # loop does not replay a second time.
        self._torn_recover.discard(descriptor.name)
        self._replay_index_log(descriptor)
        fault_point(self.system.metrics, "rebuild.replayed")

    # -- restart ------------------------------------------------------------

    def _write_utility_checkpoint(self, state: dict) -> None:
        # Every rebuild checkpoint carries the drain floors so resume can
        # clamp restored (or torn-fallback) drain positions to them.
        if self._sidefile_starts:
            state = dict(state)
            state["sidefile_start"] = dict(self._sidefile_starts)
        super()._write_utility_checkpoint(state)

    def _adopt_checkpoint(self, utility_state: dict) -> None:
        super()._adopt_checkpoint(utility_state)
        self._sidefile_starts = dict(
            utility_state.get("sidefile_start", {}))

    def _prepare_resume(self):
        state = self._resume_state
        # A crash at phase "reset" may predate the flip: the descriptors
        # are still AVAILABLE with their old trees intact.  The SF resume
        # path below treats "reset" like "load-start" (mergers from the
        # closed sealed runs; surviving tree content discarded), so all
        # that remains is re-flipping and re-creating missing side-files.
        for descriptor in self.descriptors:
            if descriptor.name not in self.system.sidefiles:
                self.system.sidefiles[descriptor.name] = SideFile(
                    self.system, descriptor.name)
            self._sidefile_starts.setdefault(descriptor.name, 0)
        (phase, scan_start, loaded, drained, mergers,
         drain_positions) = super()._prepare_resume()
        for descriptor in self.descriptors:
            if descriptor.name in drained:
                continue
            if descriptor.state is not IndexState.BUILDING:
                # Crash before (or torn snapshot of) the flip: redo it.
                descriptor.state = IndexState.BUILDING
                descriptor.build_mode = self.mode
            if self.context is not None \
                    and descriptor not in self.context.descriptors:
                self.context.descriptors.append(descriptor)
        # Drain floors: positions restored from a checkpoint are already
        # past the floor; torn-fallback positions reset to 0 must come
        # back up to it, and indexes with no recorded position start
        # there rather than at 0.
        for name, floor in self._sidefile_starts.items():
            if drain_positions.get(name, 0) < floor:
                drain_positions[name] = floor
        self.system.metrics.incr("build.resumes.rebuild")
        return phase, scan_start, loaded, drained, mergers, drain_positions
