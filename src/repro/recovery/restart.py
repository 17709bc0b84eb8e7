"""ARIES-lite restart recovery.

After a crash, :func:`restart` rebuilds a consistent system from the
surviving stable state (disk pages, forced log prefix, forced index
snapshots, forced side-file prefixes):

1. **Analysis** -- from the latest checkpoint, reconstruct the transaction
   table (who was active, their last LSN) and pick the redo starting point.
2. **Redo** -- repeat history: every redo payload from the starting point
   is re-applied, a data page's run of consecutive heap records at once,
   every other record through the operation registry.  Idempotence is
   per resource: heap pages gate on Page-LSN, index trees on their
   snapshot watermark (``durable_lsn``), side-files on entry LSNs.
3. **Undo** -- roll back loser transactions with compensation log records,
   exactly as live rollback does (section 2.2.3: "the index would be in a
   structurally consistent state after restart recovery").

The function returns the new :class:`~repro.system.System` plus the
``utility_state`` of the latest checkpoint, which the interrupted
index-build utility uses to resume (sections 2.2.3, 3.2.4, 5); the
checkpoint's build registry becomes ``system.utility_states``.  The
closing checkpoint records both again, so a crash before the resumed
build's first checkpoint recovers the same build.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sidefile import register_sidefile_operations
from repro.storage.table import redo_page_run
from repro.system import System
from repro.txn.transaction import Transaction
from repro.wal.records import RecordKind

PreUndoHook = Callable[[System, dict], None]


def restart(crashed: System, pre_undo: Optional[PreUndoHook] = None
            ) -> tuple[System, dict]:
    """Run restart recovery; returns ``(new_system, utility_state)``.

    ``pre_undo`` runs after redo and before the undo pass -- index-build
    resume logic uses it to reinstall the build context (scan position,
    Index_Build flag) that Figure 2's undo logic consults.
    """
    crashed.crash()  # idempotent: ensures volatile state is gone
    system = System(crashed.config, disk=crashed.disk, log=crashed.log)
    txn_table, redo_start, utility_state = \
        _prepare_restart(crashed, system, pre_undo)

    proc = system.spawn(_redo_then_undo(system, txn_table, redo_start,
                                        utility_state),
                        name="restart-recovery")
    system.run()
    if proc.error is not None:  # pragma: no cover - recovery bug
        raise proc.error

    _recover_page_counts(system)
    system.metrics.incr("recovery.restarts")
    return system, utility_state


def restart_on(crashed: System, sim,
               pre_undo: Optional[PreUndoHook] = None):
    """Generator form of :func:`restart` for an already-running simulator.

    A cluster node recovers *while the rest of the cluster keeps
    running*: the new system joins the shared ``sim`` and the redo/undo
    pass executes inline in the calling process instead of draining a
    private simulator.  Returns ``(new_system, utility_state)``.
    """
    crashed.crash()
    system = System(crashed.config, disk=crashed.disk, log=crashed.log,
                    sim=sim)
    txn_table, redo_start, utility_state = \
        _prepare_restart(crashed, system, pre_undo)
    yield from _redo_then_undo(system, txn_table, redo_start, utility_state)
    _recover_page_counts(system)
    system.metrics.incr("recovery.restarts")
    return system, utility_state


def _prepare_restart(crashed: System, system: System,
                     pre_undo: Optional[PreUndoHook]
                     ) -> tuple[dict, int, dict]:
    """Synchronous recovery prep shared by :func:`restart`/:func:`restart_on`.

    Carries the tracer across the crash boundary, rebuilds the catalog,
    runs analysis, and plans torn-tree strategies; returns the
    ``(txn_table, redo_start, utility_state)`` inputs the redo/undo pass
    needs.
    """
    # Carry the trace recorder across the crash boundary: one trace tells
    # the whole build-crash-recover story.  Re-binding advances the
    # recorder's time base so the new simulator's t=0 lands at the crash
    # instant (repro.obs.recorder.TraceRecorder.bind).
    tracer = getattr(crashed.metrics, "tracer", None)
    if tracer is not None:
        tracer.bind(system.sim)
        system.metrics.tracer = tracer
        tracer.instant("system.restart",
                       stable_lsn=crashed.log.flushed_lsn)
    _rebuild_catalog(crashed, system)

    checkpoint = system.log.latest_checkpoint()
    info = checkpoint.info if checkpoint is not None else {}
    utility_state = dict(info.get("utility_state", {}))
    system.utility_states = {name: dict(state) for name, state
                             in info.get("utility_states", {}).items()}
    _discard_orphan_builds(system)
    if utility_state and utility_state.get("phase") != "done" \
            and utility_state["table"] not in system.utility_states:
        utility_state = {}  # its indexes were all cancelled

    txn_table, redo_start = _analysis(system, checkpoint)
    redo_start = _cover_sidefile_tails(system, redo_start)
    redo_start = _plan_damaged_trees(system, redo_start)
    _recover_page_counts(system)  # undo handlers need valid page bounds

    if pre_undo is not None:
        pre_undo(system, utility_state)
    return txn_table, redo_start, utility_state


# -- catalog ------------------------------------------------------------------


def _rebuild_catalog(crashed: System, system: System) -> None:
    """Recreate tables and adopt the stable index trees and side-files.

    A real DBMS reads its catalog tables here; we transliterate the
    crashed system's catalog, re-pointing the surviving stable structures
    (tree snapshots, side-file prefixes) at the new system.
    """
    from repro.core.descriptor import IndexDescriptor  # lazy: avoid cycle
    from repro.core.maintenance import install_maintenance

    for table in crashed.tables.values():
        if not hasattr(table, "page_capacity"):
            continue  # index-organized tables re-register themselves
        system.create_table(table.name, table.columns,
                            page_capacity=table.page_capacity)
    for name, old_descriptor in crashed.indexes.items():
        table = system.tables.get(old_descriptor.table.name)
        if table is None:
            continue  # an index-organized table's: not recreated
        descriptor = IndexDescriptor(
            system, table, name,
            old_descriptor.key_columns,
            unique=old_descriptor.unique)
        # Adopt the crashed tree object: its pages were already reverted
        # to the stable snapshot by System.crash().
        tree = old_descriptor.tree
        tree.system = system
        descriptor.tree = tree
        descriptor.state = old_descriptor.state
        descriptor.attach()
    for name, sidefile in crashed.sidefiles.items():
        sidefile.system = system
        system.sidefiles[name] = sidefile
    for name, store in crashed.run_stores.items():
        system.run_stores[name] = store
    # Sealed-run manifests ride with their stores: the runs themselves
    # were just carried across (crash() already truncated each to its
    # stable prefix -- sealed runs are forced at seal time, so a valid
    # seal survives intact and a torn one fails rebuild validation).
    for name, manifest in crashed.sealed_runs.items():
        system.sealed_runs[name] = manifest
    register_sidefile_operations(system)
    for table in system.tables.values():
        if table.indexes:
            install_maintenance(system, table)


def _discard_orphan_builds(system: System) -> None:
    """Drop BUILDING descriptors the build registry does not name, and
    registry entries none of whose indexes is in the catalog.

    A crash between descriptor creation and the build's first utility
    checkpoint leaves a descriptor (plus side-file and sort-run store)
    with no resume information; the build must be reissued from scratch,
    so detach the orphans instead of recovering into them.  A build
    whose indexes were all cancelled (section 2.3.2) has nothing left.
    """
    from repro.core.base import RESUMABLE_MODES  # lazy: avoid cycle
    from repro.core.descriptor import IndexState

    for table, state in list(system.utility_states.items()):
        if state["builder"] in RESUMABLE_MODES and not any(
                name in system.indexes for name in state["indexes"]):
            del system.utility_states[table]
    known = {name for state in system.utility_states.values()
             for name in state["indexes"]}
    for name, descriptor in list(system.indexes.items()):
        if descriptor.state is not IndexState.BUILDING or name in known:
            continue
        descriptor.detach()
        system.sidefiles.pop(name, None)
        system.run_stores.pop(f"sort:{name}", None)
        # A sealed store under an orphan's name can only be a leftover
        # from an earlier same-named index; rebuilding the orphan from it
        # would resurrect the wrong tree.
        system.run_stores.pop(f"sealed:{name}", None)
        system.sealed_runs.pop(name, None)
        system.metrics.incr("recovery.orphan_builds_discarded")
        if system.metrics.tracer is not None:
            system.metrics.tracer.instant("recovery.orphan_discard",
                                          index=name)


def _cover_sidefile_tails(system: System, redo_start: int) -> int:
    """Start redo early enough to re-create every lost side-file entry.

    A building index's side-file is dirty state the checkpoint's dirty
    page table does not list: it is first forced when the drain starts,
    so until then its entries live only in the log.  The table's own
    recovery LSNs reach back that far only while the pool is large
    enough never to have written the pages dirtied since; under a small
    pool they do not, redo skipped the appends, and the resumed drain
    applied a truncated side-file -- a wrong index.  The side-file is
    append-only in LSN order, so its stable prefix names its recovery
    LSN exactly: one past the last durable entry.
    """
    from repro.core.descriptor import IndexState  # lazy: avoid cycle

    for name, sidefile in system.sidefiles.items():
        descriptor = system.indexes.get(name)
        if descriptor is None or descriptor.state is not IndexState.BUILDING:
            continue
        durable = sidefile.entries[-1].lsn if sidefile.entries else 0
        redo_start = min(redo_start, durable + 1)
    return redo_start


def _plan_damaged_trees(system: System, redo_start: int) -> int:
    """Choose a rebuild strategy for trees whose stable snapshot was torn.

    An SF build's tree cannot be redone from the log -- the bulk load is
    unlogged (section 3.1) -- so redo and undo skip it entirely
    (``media_damaged`` stays set) and the resumed build re-extracts the
    index from the forced, closed sort runs (section 6).  Any other tree
    is fully logged: reset its redo watermark and replay the whole log.
    """
    from repro.core.maintenance import SF_LIKE_MODES  # lazy: avoid cycle

    sf_indexes = {name for state in system.utility_states.values()
                  if state["builder"] in SF_LIKE_MODES
                  for name in state["indexes"]}
    for name, descriptor in system.indexes.items():
        tree = descriptor.tree
        if not tree.media_damaged:
            continue
        if name in sf_indexes:
            tree.durable_lsn = float("inf")  # nothing to redo into it
            system.metrics.incr("recovery.torn_trees.sf")
            strategy = "sf-reextract"
        else:
            tree.reset()  # usable again: empty, redo watermark 0
            redo_start = 1
            system.metrics.incr("recovery.torn_trees.replayed")
            strategy = "log-replay"
        if system.metrics.tracer is not None:
            system.metrics.tracer.instant("recovery.torn_tree",
                                          index=name, strategy=strategy)
    return redo_start


# -- analysis --------------------------------------------------------------------


def _analysis(system: System, checkpoint) -> tuple[dict, int]:
    """Reconstruct the transaction table; choose the redo start LSN."""
    txn_table: dict[int, dict] = {}
    if checkpoint is not None:
        for txn_id, state in checkpoint.info.get("txn_table", {}).items():
            txn_table[int(txn_id)] = dict(state)
        scan_from = checkpoint.lsn
        dirty = checkpoint.info.get("dirty_pages", {})
        rec_lsns = [int(lsn) for lsn in dirty.values()]
        redo_start = min(rec_lsns + [checkpoint.lsn])
    else:
        scan_from = 1
        redo_start = 1

    for lsn, txn_id, kind in system.log.txn_kinds(from_lsn=scan_from):
        if kind is RecordKind.END:
            txn_table.pop(txn_id, None)
            continue
        entry = txn_table.setdefault(
            txn_id, {"first_lsn": lsn, "last_lsn": lsn, "committed": False})
        entry["last_lsn"] = lsn
        if kind is RecordKind.COMMIT:
            entry["committed"] = True
    # Ids must stay unique over the whole log, not only over what the
    # analysis scanned: the master checkpoint may lie after the last
    # transaction's records.  (A record of no transaction holds 0.)
    system.txns._next_id = max(system.log.txn_ids(), default=0)
    system.metrics.incr("recovery.analysis_passes")
    return txn_table, redo_start


# -- redo and undo -------------------------------------------------------------------


def _redo_then_undo(system: System, txn_table: dict, redo_start: int,
                    utility_state: Optional[dict] = None):
    registry = system.log.operations
    redo_upto = system.log.last_lsn  # CLRs we write go beyond this
    for page_id, run in system.log.redo_runs(redo_start, redo_upto):
        if page_id is not None:  # one data page's consecutive records
            yield from redo_page_run(system, page_id, run)
            continue
        for _page_id, redo_op, lsn, txn_id, _row, payload in run:
            yield from registry.redo(redo_op)(system, lsn, txn_id, None,
                                              payload)
    system.metrics.incr("recovery.redo_passes")
    # Redo may have re-created pages the crash lost; refresh the bounds
    # before undo touches them.
    _recover_page_counts(system)

    # Undo losers: uncommitted transactions, youngest first.
    losers = [(txn_id, state) for txn_id, state in txn_table.items()
              if not state.get("committed")]
    losers.sort(reverse=True)
    for txn_id, state in losers:
        txn = Transaction(system, txn_id, name=f"loser-{txn_id}")
        txn.first_lsn = state.get("first_lsn")
        txn.last_lsn = state.get("last_lsn")
        system.txns.active[txn_id] = txn
        yield from txn.rollback()
        system.metrics.incr("recovery.losers_rolled_back")

    # Committed-but-unended transactions need only an END record.
    for txn_id, state in txn_table.items():
        if state.get("committed"):
            system.log.append(txn_id, RecordKind.END, writer="recovery")

    # Bound the next recovery with a fresh checkpoint that still holds
    # the recovered build payload and registry: a crash before the
    # resumed build's own first checkpoint must recover the same build.
    system.checkpoint(utility_state)


# -- post-recovery fixups ----------------------------------------------------------------


def _recover_page_counts(system: System) -> None:
    """Recompute each table's page count from disk and resident frames."""
    for table in system.tables.values():
        highest = -1
        for page_id in system.disk.file_pages(table.name):
            highest = max(highest, page_id.page_no)
        for frame in system.buffer.resident_pages():
            if frame.page_id.file == table.name:
                highest = max(highest, frame.page_id.page_no)
        table.page_count = highest + 1
