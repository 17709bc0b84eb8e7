"""Media recovery: image copies plus archived-log replay.

Section 2.2.3 motivates NSF's logging with exactly this: "Logging by IB
ensures that ... (2) media recovery can be supported without the user
being forced to take an image (dump) copy of the index immediately after
the index build completes."  The flip side (section 3.1) is that SF's IB
"does not write log records for the inserts of keys that it extracts",
so an SF-built index is *not* reconstructible from a pre-build image copy
plus the log -- its owner must dump it after the build.

:func:`take_image_copy` captures the stable state (a fuzzy copy is
unnecessary at simulator fidelity); :func:`media_restore` rebuilds a
system from the copy and replays the *entire* archived log from the copy
point, then rolls back losers -- standard ARIES media recovery, reusing
the restart machinery.  Footnote 8 of the paper (log records may be
discarded once image copies cover them) is the retention policy this
enables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.disk import Disk
from repro.system import System, SystemConfig
from repro.wal.manager import LogManager


@dataclass
class ImageCopy:
    """A point-in-time dump of stable storage."""

    #: LSN up to which this copy reflects the database
    copy_lsn: int
    #: stable page images, cloned
    pages: dict = field(default_factory=dict)
    #: per-index :class:`~repro.btree.tree.StableImage`; indexes created
    #: after the copy are simply absent
    trees: dict = field(default_factory=dict)
    #: per-side-file durable entries
    sidefiles: dict = field(default_factory=dict)
    #: catalog description so restore can rebuild schema
    catalog: dict = field(default_factory=dict)


def take_image_copy(system: System) -> ImageCopy:
    """Dump the current *stable* state (disk, forced index snapshots,
    durable side-file prefixes) plus the catalog."""
    image = ImageCopy(copy_lsn=system.log.flushed_lsn)
    for page_id in list(system.disk._images):
        image.pages[page_id] = system.disk._images[page_id].clone()
    for name, descriptor in system.indexes.items():
        image.trees[name] = descriptor.tree.stable_image()
    for name, sidefile in system.sidefiles.items():
        image.sidefiles[name] = [
            sidefile.entries[i] for i in range(sidefile.durable_length)]
    image.catalog = _catalog_of(system)
    system.metrics.incr("media.image_copies")
    return image


def _catalog_of(system: System) -> dict:
    return {
        "tables": {
            table.name: {
                "columns": list(table.columns),
                "page_capacity": table.page_capacity,
            }
            for table in system.tables.values()
            if hasattr(table, "page_capacity")
        },
        "indexes": {
            name: {
                "table": descriptor.table.name,
                "key_columns": list(descriptor.key_columns),
                "unique": descriptor.unique,
                "state": descriptor.state.value,
            }
            for name, descriptor in system.indexes.items()
        },
    }


def media_restore(image: ImageCopy, log: LogManager,
                  config: Optional[SystemConfig] = None,
                  current_system: Optional[System] = None) -> System:
    """Rebuild a system from ``image`` + the archived ``log`` (read, not
    appended to: the restored system logs on a copy).

    Replays every logged, redoable change with an LSN above what the
    image reflects (page-level and tree-level gating make the replay
    idempotent), then rolls back transactions that never committed.
    ``current_system``, when given, supplies catalog entries created
    after the image was taken (a real system reads them from recovered
    catalog tables).
    """
    from repro.core.descriptor import IndexDescriptor, IndexState
    from repro.core.maintenance import install_maintenance
    from repro.recovery.restart import (_analysis, _recover_page_counts,
                                        _redo_then_undo)
    from repro.sidefile import SideFile, register_sidefile_operations

    disk = Disk()
    for page_id, page in image.pages.items():
        disk._images[page_id] = page.clone()
    # Recovery appends its own records (CLRs, ENDs, a checkpoint): to a
    # copy, so the archive stays as it was for the caller and any later
    # restore from it.
    log = log.copy()
    system = System(config or SystemConfig(), disk=disk, log=log)

    # The copy's own entries win; restoring leaves the copy as it was.
    catalog = {kind: dict(entries)
               for kind, entries in image.catalog.items()}
    if current_system is not None:
        for kind, entries in _catalog_of(current_system).items():
            for name, info in entries.items():
                catalog[kind].setdefault(name, info)

    for name, info in catalog["tables"].items():
        system.create_table(name, info["columns"],
                            page_capacity=info["page_capacity"])
    for name, info in catalog["indexes"].items():
        table = system.tables[info["table"]]
        descriptor = IndexDescriptor(system, table, name,
                                     info["key_columns"],
                                     unique=info["unique"])
        descriptor.state = IndexState(info["state"])
        if name in image.trees:
            # The copy is the restored tree's stable image too: a crash
            # before its next force must come back to it, not to empty.
            descriptor.tree.install_stable_image(image.trees[name])
        descriptor.attach()
    for name, entries in image.sidefiles.items():
        sidefile = SideFile(system, name)
        sidefile.entries = list(entries)
        sidefile.durable_length = len(entries)
        system.sidefiles[name] = sidefile
    register_sidefile_operations(system)
    for table in system.tables.values():
        if table.indexes:
            install_maintenance(system, table)

    checkpoint = log.latest_checkpoint()
    txn_table, _redo_start = _analysis(system, checkpoint)
    _recover_page_counts(system)
    # Media recovery replays from the beginning of the archived log;
    # Page-LSN / durable_lsn gating skips whatever the image already has.
    proc = system.spawn(_redo_then_undo(system, txn_table, redo_start=1),
                        name="media-recovery")
    system.run()
    if proc.error is not None:  # pragma: no cover - recovery bug
        raise proc.error
    _recover_page_counts(system)
    system.metrics.incr("media.restores")
    return system
