"""Cancelling an in-progress index build (section 2.3.2).

"Since canceling an in-progress index build requires that the descriptor
of the index be deleted, we need to quiesce update transactions by
acquiring a share lock on the table.  Quiescing is required so that the
transactions which roll back can process their log records against the
index without running into any abnormal situations.  The rest of the
processing ... is the same as what is normally required for the dropping
of an index."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.descriptor import IndexDescriptor, IndexState

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


def cancel_build(system: "System", descriptor: IndexDescriptor):
    """Generator process body: cancel a build and drop its index."""
    txn = system.txns.begin(f"cancel-{descriptor.name}")
    # Quiesce updates: wait out all IX holders, block new ones briefly.
    yield from txn.lock(descriptor.table.table_lock_name, "S")
    descriptor.state = IndexState.CANCELLED
    context = system.builds.get(descriptor.table.name)
    if context is not None and descriptor in context.descriptors:
        context.descriptors.remove(descriptor)
        if not context.descriptors:
            system.builds.pop(descriptor.table.name, None)
    descriptor.detach()
    descriptor.tree.reset()
    system.sidefiles.pop(descriptor.name, None)
    system.run_stores.pop(f"sort:{descriptor.name}", None)
    system.run_stores.pop(f"sealed:{descriptor.name}", None)
    system.sealed_runs.pop(descriptor.name, None)
    system.metrics.incr("build.cancels")
    yield from txn.commit()
