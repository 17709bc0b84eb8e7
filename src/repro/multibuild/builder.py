"""Multi-index single-scan builds (section 6.2).

"Creation of multiple indexes on the same table could be going on
concurrently with a single scan being shared" -- the paper's section 6.2
extension.  :class:`MultiIndexBuilder` drives ONE data scan (the SF
discipline: Current-RID visibility, side-file routed maintenance) that
feeds K per-index replacement-selection sort pipelines, then brings each
index online *independently*: bulk-load index 1, drain its side-file,
flip it AVAILABLE, move to index 2 -- so queries on early indexes speed
up while later indexes are still loading (the p99 staircase measured by
``examples/advisor_build.py``).

This differs from :class:`repro.core.sf.SFIndexBuilder` handed K specs,
which loads *all* trees before draining *any* side-file: the serial
order keeps every index offline until the very end.  The shared pieces
-- scan/sort (:meth:`BuilderBase._scan_and_sort` already extracts one
key per index per record), bulk load, drain + atomic flag flip
(:class:`SideFileDrainer`) -- are reused verbatim; what is new is the
per-index **manifest** in the utility checkpoint::

    {"phase": "index",
     "multi": {"idx_a": {"status": "done"},
               "idx_b": {"status": "draining", "position": 128},
               "idx_c": {"status": "pending"}}}

so a crash resumes only unfinished indexes and never rescans (or
reloads, or re-drains) finished ones.  The NSF discipline needs no new
builder: :class:`repro.core.nsf.NSFIndexBuilder` already accepts K
specs against the shared scan and its indexes are visible from
descriptor creation; :func:`multi_build` dispatches between them.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.base import BuilderBase, BuildOptions
from repro.core.descriptor import IndexState
from repro.core.maintenance import MULTI_MODE
from repro.core.sf import SFIndexBuilder
from repro.faultinject.sites import fault_point
from repro.sort import RestartableMerger
from repro.storage.rid import INFINITY_RID

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


class MultiIndexBuilder(SFIndexBuilder):
    """K indexes, one scan, per-index load->drain->flip pipeline."""

    mode = MULTI_MODE

    def __init__(self, system, table, specs, options=None):
        super().__init__(system, table, specs, options)
        #: per-index build manifest checkpointed under the ``multi`` key:
        #: index name -> {"status": pending|loading|draining|done,
        #: "position": drain start, "merge"/"highest_key": load progress}
        self._manifest: dict[str, dict] = {}

    # -- main process ------------------------------------------------------

    def _run_phases(self):
        """One scan, K independent flips."""
        if self._resume_state is None:
            self._descriptor_phase()
            self._make_sorters()
            phase, scan_start, mergers = "scan", 0, {}
        else:
            phase, scan_start, mergers = self._prepare_multi_resume()
        if phase == "scan":
            mergers = yield from self._scan_phase(scan_start)
        yield from self._index_pipeline(mergers)

    def _scan_done(self) -> None:
        # Section 3.2.2: later file extensions reach the side-files.
        self.context.current_rid = INFINITY_RID
        fault_point(self.system.metrics, "multibuild.scan_done")
        for descriptor in self.descriptors:
            self._manifest[descriptor.name] = {"status": "pending"}
        # From here each index resumes from its own manifest entry.
        self._write_utility_checkpoint({"phase": "index"})

    def _index_pipeline(self, mergers):
        """Load, drain, and flip each index in turn.

        Index i becomes AVAILABLE before index i+1's load begins -- the
        earliest each can come online under one scan's worth of I/O.
        Side-files of the not-yet-drained indexes keep growing behind
        Current-RID = infinity while earlier indexes drain.
        """
        metrics = self.system.metrics
        for descriptor in self.descriptors:
            name = descriptor.name
            entry = self._manifest.get(name) or {"status": "pending"}
            status = entry.get("status", "pending")
            if status == "done":
                continue
            if status != "draining":
                yield from self._load_phase(
                    descriptor, mergers.get(name), [],
                    loader=self._resume_loaders.pop(name, None))
                if name in self._torn_recover:
                    self._torn_recover.discard(name)
                    self._replay_index_log(descriptor)
                fault_point(metrics, "multibuild.index_loaded")
            start = int(entry.get("position", 0))
            self.system.sidefiles[name].force()
            self._write_utility_checkpoint({
                "phase": "drain", "index": name, "position": start})
            fault_point(metrics, "sf.drain_start")
            yield from self._drain_phase(descriptor, start, [], [])
            self._manifest[name] = {"status": "done"}
            metrics.incr("multibuild.indexes_flipped")
            self._write_utility_checkpoint({"phase": "index"})
            fault_point(metrics, "multibuild.index_done")

    # -- manifest maintenance ----------------------------------------------

    def _write_utility_checkpoint(self, state: dict) -> None:
        """Fold the inherited load/drain checkpoint payloads into the
        per-index manifest, then checkpoint the whole manifest.

        ``_load_phase`` and ``_drain_phase`` (shared with SF) emit
        single-index payloads (``{"phase": "load", "index": ...,
        "merge": ...}``); translating them here -- instead of forking
        those phases -- keeps one copy of the load/drain logic while the
        checkpoint record always carries every index's progress.
        """
        state = dict(state)
        phase = state.get("phase")
        if phase == "load":
            name = state.pop("index")
            previous = self._manifest.get(name) or {}
            self._manifest[name] = {
                "status": "loading",
                "merge": state.pop("merge"),
                "highest_key": state.pop("highest_key"),
                # a torn-recovery drain offset survives the reload
                "position": int(previous.get("position", 0)),
            }
            state.pop("loaded_indexes", None)
            state["phase"] = "index"
        elif phase == "drain":
            name = state.pop("index")
            self._manifest[name] = {
                "status": "draining",
                "position": int(state.pop("position", 0)),
            }
            state.pop("loaded_indexes", None)
            state.pop("drained_indexes", None)
            state["phase"] = "index"
        if state.get("phase") != "done":
            state["multi"] = {name: dict(entry)
                             for name, entry in self._manifest.items()}
        super()._write_utility_checkpoint(state)

    # -- restart -----------------------------------------------------------

    def _prepare_multi_resume(self):
        """Rebuild in-flight state from the checkpointed manifest;
        returns ``(phase, scan_start, mergers)``.

        Finished indexes ("done") are skipped outright -- no rescan, no
        reload, no re-drain; an index mid-load resumes its checkpointed
        merge; an index mid-drain resumes from its drain position; a
        pending index rebuilds from the forced, closed sort runs.
        """
        state = self._resume_state
        metrics = self.system.metrics
        self._manifest = {name: dict(entry)
                          for name, entry in state.get("multi", {}).items()}
        mergers: dict[str, RestartableMerger] = {}
        if state.get("phase", "scan") == "scan":
            return "scan", self._resume_scan(), mergers

        # Section 6 fallback, per index: pull a torn index alone back to
        # pending; the other indexes keep their manifest progress.
        for descriptor in self.descriptors:
            if not descriptor.tree.media_damaged:
                continue
            entry = self._manifest.get(descriptor.name) or {}
            flipped = (descriptor.state is IndexState.AVAILABLE
                       or entry.get("status") == "done")
            self._manifest[descriptor.name] = {
                "status": "pending",
                "position": self._torn_fallback(descriptor, flipped)}

        skipped = 0
        for descriptor in self.descriptors:
            name = descriptor.name
            entry = self._manifest.setdefault(name, {"status": "pending"})
            status = entry.get("status", "pending")
            if status == "done":
                # Never rescanned, never reloaded: the flip was
                # checkpointed, so the catalog carried AVAILABLE across.
                descriptor.state = IndexState.AVAILABLE
                if self.context is not None \
                        and descriptor in self.context.descriptors:
                    self.context.descriptors.remove(descriptor)
                skipped += 1
            elif status == "loading":
                mergers[name] = self._resume_load(
                    descriptor, entry["merge"], entry.get("highest_key"))
            elif status != "draining":  # pending
                mergers[name] = self._restart_load(descriptor)
            # draining: no merger needed; drain resumes from its position
        if skipped:
            metrics.incr("multibuild.resume_skipped_indexes", skipped)
        metrics.incr("build.resumes.multi")
        return "index", 0, mergers


def multi_build(system: "System", table, specs,
                options: Optional[BuildOptions] = None,
                discipline: str = "sf") -> BuilderBase:
    """One shared-scan builder for K indexes, by update discipline.

    ``"sf"`` returns a :class:`MultiIndexBuilder` (side-files, per-index
    flag flips, each index online as soon as its own drain completes).
    ``"nsf"`` returns an :class:`~repro.core.nsf.NSFIndexBuilder` over
    the same K specs -- NSF indexes are maintained directly from
    descriptor creation, so the shared scan needs no new machinery there
    (section 6.2 note in :class:`BuildContext`).
    """
    if discipline == "sf":
        return MultiIndexBuilder(system, table, specs, options)
    if discipline == "nsf":
        from repro.core.nsf import NSFIndexBuilder
        return NSFIndexBuilder(system, table, specs, options)
    raise ValueError(f"unknown multibuild discipline {discipline!r}")
